package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"orderlight/internal/olerrors"
	"orderlight/internal/stats"
)

// newFakeServer wires a Fake behind the real handler and returns a
// Client speaking real HTTP to it.
func newFakeServer(t *testing.T) (*Fake, *Client) {
	t.Helper()
	fake := NewFake()
	srv := httptest.NewServer(NewHandler(fake))
	t.Cleanup(srv.Close)
	return fake, NewClient(srv.URL, srv.Client())
}

func TestHandlerSubmitStatusResult(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Kind != KindKernel {
		t.Fatalf("status = %+v", st)
	}
	if len(fake.Submitted) != 1 || fake.Submitted[0].Kernel != "add" {
		t.Fatalf("daemon saw %+v", fake.Submitted)
	}

	fake.Start(id)
	fake.Progress(id, 1, 1)
	fake.Finish(id, &JobResult{Run: &stats.Run{Correct: true}}, nil)

	res, err := client.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || !res.Run.Correct {
		t.Fatalf("result = %+v", res)
	}
}

func TestHandlerAdmission429And503(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	// errors.Is round-trips through the wire envelope.
	for _, tc := range []struct {
		scripted error
		status   int
		retry    bool
	}{
		{ErrQueueFull, http.StatusTooManyRequests, true},
		{ErrQuotaExceeded, http.StatusTooManyRequests, true},
		{ErrDraining, http.StatusServiceUnavailable, true},
	} {
		fake.ScriptSubmitError(tc.scripted)
		if _, err := client.Submit(ctx, kernelReq("add")); !errors.Is(err, tc.scripted) {
			t.Fatalf("Submit = %v, want %v", err, tc.scripted)
		}

		// The raw response carries the status code and Retry-After the
		// protocol promises.
		body, _ := json.Marshal(kernelReq("add"))
		resp, err := http.Post(client.base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%v: status = %d, want %d", tc.scripted, resp.StatusCode, tc.status)
		}
		if tc.retry && resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%v: no Retry-After header", tc.scripted)
		}
	}
	fake.ScriptSubmitError(nil)
}

func TestHandlerErrorRoundTrips(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	// Unknown job: 404, ErrUnknownJob.
	if _, err := client.Status(ctx, "job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status(unknown) = %v, want ErrUnknownJob", err)
	}
	// Premature result: 409, ErrNotFinished.
	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(ctx, id); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result(queued) = %v, want ErrNotFinished", err)
	}
	// Validation: 400, sentinel preserved.
	if _, err := client.Submit(ctx, kernelReq("not-a-kernel")); !errors.Is(err, olerrors.ErrUnknownKernel) {
		t.Fatalf("Submit(bad kernel) = %v, want ErrUnknownKernel", err)
	}
	// A failed job's sentinel crosses the wire: the daemon classified a
	// watchdog kill, the client re-arms the same sentinel.
	fake.Start(id)
	fake.Finish(id, nil, fmt.Errorf("runner: cell add: %w after 5ms", olerrors.ErrCellTimeout))
	if _, err := client.Result(ctx, id); !errors.Is(err, olerrors.ErrCellTimeout) {
		t.Fatalf("Result(failed) = %v, want ErrCellTimeout", err)
	}
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil || st.Error.Code != "cell-timeout" {
		t.Fatalf("failed status = %+v", st)
	}
}

func TestHandlerCancelMidRun(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	fake.Start(id)
	if err := client.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %v", st.State)
	}
	if _, err := client.Result(ctx, id); !errors.Is(err, olerrors.ErrCanceled) {
		t.Fatalf("Result(canceled) = %v, want ErrCanceled", err)
	}
}

func TestHandlerWatchStreamTerminates(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := client.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		fake.Start(id)
		fake.Progress(id, 1, 2)
		fake.Progress(id, 2, 2)
		fake.Finish(id, &JobResult{Run: &stats.Run{Correct: true}}, nil)
	}()

	var last WatchEvent
	var sawProgress bool
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if !last.Terminal() || last.State != StateDone {
					t.Fatalf("stream ended on %+v, want terminal done", last)
				}
				if !sawProgress {
					t.Fatal("stream carried no progress events")
				}
				return
			}
			if ev.Type == "progress" {
				sawProgress = true
			}
			last = ev
		case <-deadline:
			t.Fatal("watch stream did not terminate")
		}
	}
}

func TestHandlerAutoFakeAwait(t *testing.T) {
	fake := NewFake()
	fake.AutoResult = &JobResult{Run: &stats.Run{Correct: true}}
	fake.AutoLatency = 10 * time.Millisecond
	srv := httptest.NewServer(NewHandler(fake))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	ctx := context.Background()
	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Await(ctx, client, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || !res.Run.Correct {
		t.Fatalf("awaited result = %+v", res)
	}
}

func TestHandlerHealthzAndVersion(t *testing.T) {
	svc := NewLocal(LocalConfig{Workers: 2, QueueDepth: 5})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	ctx := context.Background()
	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueDepth != 5 {
		t.Fatalf("healthz = %+v", h)
	}
	v, err := client.ServerVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.API != Version || v.GoVersion == "" {
		t.Fatalf("version = %+v", v)
	}
}

func TestHandlerMalformedBody(t *testing.T) {
	_, client := newFakeServer(t)
	status, je := postRaw(t, client.base, "/v1/jobs", "{not json")
	if status != http.StatusBadRequest || je == nil || je.Code != "invalid-spec" {
		t.Fatalf("malformed body: status %d, envelope %+v; want 400 invalid-spec", status, je)
	}
}

// postRaw posts body to path on the handler and decodes the error
// envelope, if any.
func postRaw(t *testing.T, base, path, body string) (int, *JobError) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb.Error
}

// TestHandlerBodyCap: submit, lease and heartbeat bodies over the fixed
// cap are refused with 413 and a sentinel that survives the client.
func TestHandlerBodyCap(t *testing.T) {
	svc := NewLocal(LocalConfig{Fabric: true})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	huge := kernelReq("add")
	huge.Tenant = strings.Repeat("x", maxRequestBody)
	if _, err := client.Submit(context.Background(), huge); !errors.Is(err, olerrors.ErrRequestTooLarge) {
		t.Fatalf("Submit(oversize) = %v, want ErrRequestTooLarge", err)
	}

	pad := strings.Repeat("x", maxRequestBody)
	for path, body := range map[string]string{
		"/v1/jobs":           `{"kind":"kernel","kernel":"add","tenant":"` + pad + `"}`,
		"/v1/work/lease":     `{"worker":"` + pad + `"}`,
		"/v1/work/heartbeat": `{"job":"j","lease":"` + pad + `"}`,
	} {
		status, je := postRaw(t, srv.URL, path, body)
		if status != http.StatusRequestEntityTooLarge || je == nil || je.Code != "request-too-large" {
			t.Errorf("%s oversize: status %d, envelope %+v; want 413 request-too-large", path, status, je)
		}
	}

	// A body under the cap is decoded as before.
	if status, je := postRaw(t, srv.URL, "/v1/work/heartbeat", `{"job":"j","lease":"l"}`); status != http.StatusOK {
		t.Errorf("small heartbeat: status %d, envelope %+v; want 200", status, je)
	}
}

// TestHandlerWorkLeaseBody: an empty lease body is an anonymous worker,
// but a malformed one is refused instead of silently treated as empty.
func TestHandlerWorkLeaseBody(t *testing.T) {
	svc := NewLocal(LocalConfig{Fabric: true})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, body := range []string{"", `{"worker":"w1"}`} {
		if status, je := postRaw(t, srv.URL, "/v1/work/lease", body); status != http.StatusNoContent {
			t.Errorf("lease %q: status %d, envelope %+v; want 204 (idle)", body, status, je)
		}
	}
	for _, body := range []string{"{not json", `{"worker":7}`, `{"wrker":"w1"}`} {
		status, je := postRaw(t, srv.URL, "/v1/work/lease", body)
		if status != http.StatusBadRequest || je == nil || je.Code != "invalid-spec" {
			t.Errorf("lease %q: status %d, envelope %+v; want 400 invalid-spec", body, status, je)
		}
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"

	"orderlight/internal/olerrors"
)

// Version identifies the wire protocol the daemon speaks. Bump it when
// the request or result schema changes incompatibly.
const Version = "v1"

// maxRequestBody caps the submit, lease and heartbeat request bodies.
// A job request is a config plus options — kilobytes — so 1 MiB leaves
// ample headroom while bounding what one request can make the daemon
// buffer. /v1/work/complete is not capped: its size grows with the
// coordinator's lease chunk.
const maxRequestBody = 1 << 20

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	API       string `json:"api"`
	GoVersion string `json:"go_version"`
}

// Drainer is implemented by services that support graceful shutdown;
// the daemon type-asserts it on SIGTERM and /healthz reports its load.
type Drainer interface {
	Drain(ctx context.Context) error
	Health() HealthInfo
}

// NewHandler mounts the Service on an http.ServeMux speaking the
// /v1 JSON protocol:
//
//	POST   /v1/jobs             submit (202 + status)
//	GET    /v1/jobs/{id}        status
//	GET    /v1/jobs/{id}/result result (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel (202 + status)
//	GET    /v1/jobs/{id}/events lifecycle stream (server-sent events)
//	POST   /v1/work/lease       fabric worker leases a cell range (204 when idle)
//	POST   /v1/work/complete    fabric worker reports a range's outcomes
//	POST   /v1/work/heartbeat   fabric worker extends a held lease mid-execution
//	GET    /healthz             liveness + queue load
//	GET    /v1/version          protocol + toolchain versions
//
// Admission failures map to 429 (queue full, tenant quota) and 503
// (draining), both with Retry-After; bad requests to 400; bodies over
// maxRequestBody to 413; unknown jobs to 404; premature result fetches
// to 409. Every error body is
// {"error": {"code", "message"}} with the code from the shared wire
// taxonomy, so clients rebuild errors.Is-compatible errors.
func NewHandler(svc Service) http.Handler {
	h := &handler{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("POST /v1/work/lease", h.workLease)
	mux.HandleFunc("POST /v1/work/complete", h.workComplete)
	mux.HandleFunc("POST /v1/work/heartbeat", h.workHeartbeat)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /v1/version", h.version)
	return mux
}

type handler struct {
	svc Service
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error *JobError `json:"error"`
}

// writeError maps err to its HTTP status and JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		status = http.StatusConflict
	case errors.Is(err, olerrors.ErrRequestTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, olerrors.ErrUnknownKernel),
		errors.Is(err, olerrors.ErrUnknownExperiment),
		errors.Is(err, olerrors.ErrInvalidSpec):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: WireError(err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeCapped decodes a JSON request body of at most maxRequestBody
// bytes into v, refusing unknown fields. An oversize body is
// ErrRequestTooLarge; any other decode failure is ErrInvalidSpec naming
// what was malformed; it still matches io.EOF for an empty body, so
// callers whose body is optional can tell that case apart.
func decodeCapped(w http.ResponseWriter, r *http.Request, what string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return fmt.Errorf("serve: %w: %s exceeds %d bytes", olerrors.ErrRequestTooLarge, what, tooBig.Limit)
	}
	return fmt.Errorf("serve: %w: malformed %s: %w", olerrors.ErrInvalidSpec, what, err)
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeCapped(w, r, "job request", &req); err != nil {
		writeError(w, err)
		return
	}
	id, err := h.svc.Submit(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := h.svc.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.svc.Status(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *handler) result(w http.ResponseWriter, r *http.Request) {
	res, err := h.svc.Result(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := JobID(r.PathValue("id"))
	if err := h.svc.Cancel(r.Context(), id); err != nil {
		writeError(w, err)
		return
	}
	st, err := h.svc.Status(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// events streams the job lifecycle as server-sent events: each watch
// event is one "data: <json>" frame. The stream ends after the
// terminal state event (or when the client goes away, which
// unsubscribes the watcher).
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	events, err := h.svc.Watch(r.Context(), JobID(r.PathValue("id")))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for ev := range events {
		if _, err := w.Write([]byte("data: ")); err != nil {
			return
		}
		if err := enc.Encode(ev); err != nil { // Encode appends the \n
			return
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

// workProvider type-asserts the fabric coordinator surface; services
// without one (a non-fabric daemon, the Fake) answer invalid-spec.
func (h *handler) workProvider(w http.ResponseWriter) (WorkProvider, bool) {
	wp, ok := h.svc.(WorkProvider)
	if !ok {
		writeError(w, fmt.Errorf("serve: %w: this service has no fabric coordinator", olerrors.ErrInvalidSpec))
		return nil, false
	}
	return wp, true
}

// workLease answers a fabric worker's poll: 200 with a lease, or 204
// when nothing is pending right now. An empty body is an anonymous
// worker.
func (h *handler) workLease(w http.ResponseWriter, r *http.Request) {
	wp, ok := h.workProvider(w)
	if !ok {
		return
	}
	var req WorkLeaseRequest
	if err := decodeCapped(w, r, "work lease", &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, err)
		return
	}
	l, err := wp.LeaseWork(r.Context(), req.Worker)
	if err != nil {
		writeError(w, err)
		return
	}
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// workComplete records a lease's outcomes; 204 on success.
func (h *handler) workComplete(w http.ResponseWriter, r *http.Request) {
	wp, ok := h.workProvider(w)
	if !ok {
		return
	}
	var comp WorkCompletion
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&comp); err != nil {
		writeError(w, fmt.Errorf("serve: %w: malformed work completion: %v", olerrors.ErrInvalidSpec, err))
		return
	}
	if err := wp.CompleteWork(r.Context(), comp); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// workHeartbeat extends a held lease; the reply says whether the
// lease is still held.
func (h *handler) workHeartbeat(w http.ResponseWriter, r *http.Request) {
	wp, ok := h.workProvider(w)
	if !ok {
		return
	}
	var hb WorkHeartbeat
	if err := decodeCapped(w, r, "work heartbeat", &hb); err != nil {
		writeError(w, err)
		return
	}
	held, err := wp.HeartbeatWork(r.Context(), hb)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, WorkHeartbeatReply{Held: held})
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	if d, ok := h.svc.(Drainer); ok {
		writeJSON(w, http.StatusOK, d.Health())
		return
	}
	writeJSON(w, http.StatusOK, HealthInfo{Status: "ok"})
}

func (h *handler) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{API: Version, GoVersion: runtime.Version()})
}

package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/stats"
)

// completeRange drives one lease to completion with synthetic outcomes.
func completeRange(t *testing.T, b *Board, l *Lease, worker string) {
	t.Helper()
	outs := make([]CellOutcome, 0, l.Hi-l.Lo)
	for i := l.Lo; i < l.Hi; i++ {
		outs = append(outs, CellOutcome{Index: i, Key: "k", Run: stats.New(512)})
	}
	if err := b.Complete(l.Job, l.ID, worker, outs); err != nil {
		t.Fatal(err)
	}
}

// A coordinator killed mid-sweep restarts on its journal with the
// completed cells intact: a resubmitted identical request attaches to
// the replayed job, only the unfinished ranges are re-leased, and the
// assembled outcomes are identical to an uninterrupted run.
func TestJournaledBoardRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	req := []byte(`{"kind":"experiment"}`)

	b1, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := b1.Post(req, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Finish the first chunk [0,2), then "SIGKILL" the coordinator by
	// abandoning b1 — nothing is flushed beyond what each Complete
	// already synced.
	completeRange(t, b1, b1.Lease("w1"), "w1")

	var notices []string
	b2, err := NewJournaledBoard(time.Minute, 2, path, nil, func(f string, a ...any) {
		notices = append(notices, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(notices) == 0 {
		t.Fatal("restart on a non-empty journal logged no replay notice")
	}

	// Resubmission attaches: same key, progress picks up at 2/6.
	var firstDone int
	key2, err := b2.Post(req, 6, func(done, total int) {
		if firstDone == 0 {
			firstDone = done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Fatalf("resubmitted job key = %q, want %q", key2, key)
	}
	if firstDone != 2 {
		t.Fatalf("attach progress reported done=%d, want 2", firstDone)
	}

	// Only indices [2,6) are pending; the replayed chunk never re-leases.
	var leased []int
	for {
		l := b2.Lease("w2")
		if l == nil {
			break
		}
		for i := l.Lo; i < l.Hi; i++ {
			leased = append(leased, i)
		}
		completeRange(t, b2, l, "w2")
	}
	if len(leased) != 4 || leased[0] != 2 || leased[3] != 5 {
		t.Fatalf("post-restart leased indices = %v, want [2 3 4 5]", leased)
	}
	got, err := b2.Wait(context.Background(), key2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d outcomes, want 6", len(got))
	}
	for i, o := range got {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d — declaration order lost across restart", i, o.Index)
		}
	}
}

// Posting a journaled job with a different cell count is the one
// unresolvable attach conflict and must fail loudly.
func TestJournaledBoardAttachTotalMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	b1, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Post([]byte("req"), 4, nil); err != nil {
		t.Fatal(err)
	}
	b2, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Post([]byte("req"), 5, nil); err == nil {
		t.Fatal("attach with mismatched total succeeded")
	}
}

// A crash mid-append leaves a torn trailing line; replay drops it
// silently (the record was never acknowledged) and the board restarts.
func TestJournaledBoardTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	b1, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Post([]byte("req"), 2, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"cell","job":"fj-tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if l := b2.Lease("w"); l == nil || l.Lo != 0 || l.Hi != 2 {
		t.Fatalf("replayed job lease = %+v", l)
	}
}

// Damage before the last line means acknowledged records are
// unreadable; replay must refuse rather than silently resurrect a
// partial board.
func TestJournaledBoardCorruptMiddleLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	b1, err := NewJournaledBoard(time.Minute, 1, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := b1.Post([]byte("req"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	completeRange(t, b1, b1.Lease("w"), "w")
	completeRange(t, b1, b1.Lease("w"), "w")
	if _, err := b1.Wait(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	lines[1] = "{garbage!!\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJournaledBoard(time.Minute, 1, path, nil, nil); err == nil {
		t.Fatal("corrupt middle line replayed without error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corrupt-middle error %v does not name the damaged line", err)
	}
}

// A journaled failure outcome replays as a failed job: Wait on the
// attached resubmission reports the original cell error.
func TestJournaledBoardReplaysFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	b1, err := NewJournaledBoard(time.Minute, 4, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Post([]byte("req"), 3, nil); err != nil {
		t.Fatal(err)
	}
	l := b1.Lease("w")
	if err := b1.Complete(l.Job, l.ID, "w", []CellOutcome{{Index: 1, Key: "bad", Err: "boom"}}); err != nil {
		t.Fatal(err)
	}
	b2, err := NewJournaledBoard(time.Minute, 4, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := b2.Post([]byte("req"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Wait(context.Background(), key); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("replayed failure Wait = %v, want boom", err)
	}
}

// brokenFS opens files whose writes and syncs always fail — the
// permanently sick disk, without chaos-plan scheduling.
type brokenFS struct{ chaos.FS }

func (b brokenFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return brokenFile{f}, nil
}

type brokenFile struct{ chaos.File }

func (f brokenFile) Write([]byte) (int, error) {
	return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
}
func (f brokenFile) Sync() error {
	return &os.PathError{Op: "sync", Path: f.Name(), Err: syscall.EIO}
}

// A dead journal disk degrades the journal, never the job: the board
// keeps leasing and completing, it just loses restart coverage.
func TestJournaledBoardDegradesOnSickDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.journal")
	var notices int
	b, err := NewJournaledBoard(time.Minute, 2, path, brokenFS{chaos.OS}, func(string, ...any) {
		notices++
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := b.Post([]byte("req"), 4, nil)
	if err != nil {
		t.Fatalf("Post on sick journal disk failed: %v", err)
	}
	if !b.JournalDegraded() {
		t.Fatal("journal not degraded after failed append")
	}
	if notices != 1 {
		t.Fatalf("degrade logged %d notices, want exactly 1 (latch, not per-append)", notices)
	}
	for {
		l := b.Lease("w")
		if l == nil {
			break
		}
		completeRange(t, b, l, "w")
	}
	if got, err := b.Wait(context.Background(), key); err != nil || len(got) != 4 {
		t.Fatalf("Wait on degraded board = %d outcomes, %v", len(got), err)
	}
	if notices != 1 {
		t.Fatalf("completions re-logged the degrade notice (%d total)", notices)
	}
}

// Heartbeats extend a lease past its original TTL deadline.
func TestBoardHeartbeatExtendsLease(t *testing.T) {
	b := NewBoard(time.Minute, 4)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	if _, err := b.Post([]byte("req"), 4, nil); err != nil {
		t.Fatal(err)
	}
	l := b.Lease("w1")
	if l == nil {
		t.Fatal("no lease")
	}
	if l.HeartbeatMillis != (time.Minute / 4).Milliseconds() {
		t.Fatalf("HeartbeatMillis = %d, want ttl/4", l.HeartbeatMillis)
	}
	// Beat every 40s: each beat lands inside the current deadline and
	// re-extends it, so after 2 TTLs the lease is still held.
	for i := 0; i < 3; i++ {
		now = now.Add(40 * time.Second)
		if !b.Heartbeat("w1", l.Job, l.ID) {
			t.Fatalf("heartbeat %d reported lease lost", i)
		}
		if got := b.Lease("w2"); got != nil {
			t.Fatalf("heartbeat-extended range re-issued: %+v", got)
		}
	}
	// Stop beating; the lease expires on its last extension.
	now = now.Add(2 * time.Minute)
	if b.Heartbeat("w1", l.Job, l.ID) {
		t.Fatal("expired lease still heartbeats as held")
	}
	if got := b.Lease("w2"); got == nil || got.Lo != 0 {
		t.Fatalf("expired range not re-issued: %+v", got)
	}
}

// With heartbeats armed, a silent worker loses its lease after the
// grace period — well before the full TTL.
func TestBoardHeartbeatEarlyReclaim(t *testing.T) {
	b := NewBoard(time.Minute, 4)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	b.EnableHeartbeats(10 * time.Second)
	if _, err := b.Post([]byte("req"), 4, nil); err != nil {
		t.Fatal(err)
	}
	if l := b.Lease("w1"); l == nil {
		t.Fatal("no lease")
	}
	// 15s of silence: far inside the 60s TTL, past the 10s grace.
	now = now.Add(15 * time.Second)
	l2 := b.Lease("w2")
	if l2 == nil || l2.Lo != 0 {
		t.Fatalf("silent worker's range not reclaimed early: %+v", l2)
	}
}

// Two consecutive expiries mark a worker flapping; its next lease runs
// on a quarter TTL, and one successful completion clears the mark.
func TestBoardFlapDetection(t *testing.T) {
	b := NewBoard(time.Minute, 4)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	if _, err := b.Post([]byte("req"), 4, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flapStreak; i++ {
		if l := b.Lease("w1"); l == nil {
			t.Fatalf("lease %d not granted", i)
		}
		now = now.Add(2 * time.Minute) // expire it
	}
	l := b.Lease("w1") // reclaim charges the second expiry, then re-grants
	if l == nil {
		t.Fatal("flapping worker refused work entirely")
	}
	ws := b.Workers()
	if len(ws) != 1 || !ws[0].Flapping || ws[0].Expiries < flapStreak {
		t.Fatalf("Workers() = %+v, want w1 flapping", ws)
	}
	// The flapping lease expires at ttl/4, not ttl.
	now = now.Add(20 * time.Second) // > 15s = ttl/4, < 60s = ttl
	l2 := b.Lease("w2")
	if l2 == nil || l2.Lo != 0 {
		t.Fatalf("flapping worker's short lease not reclaimed at ttl/4: %+v", l2)
	}
	// w2 completes; w1's next completion clears its streak too.
	completeRange(t, b, l2, "w2")
	if err := b.Complete(l.Job, l.ID, "w1", nil); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workers() {
		if w.Name == "w1" && w.Flapping {
			t.Fatalf("completion did not clear flap mark: %+v", w)
		}
	}
}

// Workers sorts flapping workers first so /healthz surfaces trouble.
func TestBoardWorkersSnapshotOrder(t *testing.T) {
	b := NewBoard(time.Minute, 4)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	if _, err := b.Post([]byte("req"), 8, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flapStreak; i++ {
		if l := b.Lease("zz-flappy"); l == nil {
			t.Fatalf("lease %d not granted", i)
		}
		now = now.Add(2 * time.Minute)
	}
	b.Lease("aa-steady") // triggers the final reclaim, then takes the range
	ws := b.Workers()
	if len(ws) != 2 || ws[0].Name != "zz-flappy" || !ws[0].Flapping {
		t.Fatalf("Workers() = %+v, want zz-flappy first (flapping)", ws)
	}
	if ws[1].Name != "aa-steady" || ws[1].Leases != 1 {
		t.Fatalf("Workers()[1] = %+v, want aa-steady holding 1 lease", ws[1])
	}
}

// TestBoardJournalFixtureReplays replays a coordinator journal written
// by an earlier build: a job with two of four cells done and a third
// lease lost, a collected (forgotten) job, a job failed by a worker
// error, and a torn final append. The rebuilt board must hold exactly
// that state, and every replayed outcome must re-marshal to the bytes
// on disk.
func TestBoardJournalFixtureReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "board.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "board.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := NewJournaledBoard(time.Minute, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		onDisk[line] = true
	}
	var got []string
	b.mu.Lock()
	for _, key := range b.order {
		j := b.jobs[key]
		state := fmt.Sprintf("%s %s total=%d done=%d finished=%t err=%q", key, j.request, j.total, j.done, j.finished, j.errMsg)
		if !j.finished {
			state += fmt.Sprintf(" pending=%v", j.pending)
		}
		got = append(got, state)
		for _, o := range j.outcomes {
			if o == nil {
				continue
			}
			line, err := json.Marshal(&boardRecord{Op: "cell", Job: key, Outcome: o})
			if err != nil {
				t.Fatal(err)
			}
			if !onDisk[string(line)] {
				t.Errorf("replayed outcome %d of %s does not re-marshal to a journal line: %s", o.Index, key, line)
			}
		}
	}
	b.mu.Unlock()
	want := []string{
		`fj-415baa1e04b357c4 {"kind":"experiment","experiment":"fig5"} total=4 done=2 finished=false err="" pending=[[2 4]]`,
		`fj-ad452120827fe4db {"kind":"experiment","experiment":"fig12"} total=3 done=0 finished=true err="cell 0 (fig12/x): cell panicked"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("replayed board:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

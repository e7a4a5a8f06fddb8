package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	name   string // "<layer>.<call>", e.g. "gpu.run"
	cell   string // the cell or request the call served
	parent int    // index of the enclosing span, -1 at the root
	tid    int    // Chrome-trace track: 0 for the sequential pass, 1+ for serve lanes
	start  time.Duration
	end    time.Duration
	alloc  uint64 // heap bytes allocated during the call; 0 when not measured
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: do and add call straight through and record nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times fn as a span with its runtime.MemStats TotalAlloc delta and
// returns the span's index. The allocation figure is only meaningful while
// nothing else in the process allocates, so do is for the sequential
// pass; concurrent callers use add.
func (r *recorder) do(name, cell string, parent int, fn func() error) (int, error) {
	if r == nil {
		return -1, fn()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Since(r.t0)
	err := fn()
	end := time.Since(r.t0)
	runtime.ReadMemStats(&ms)
	return r.add(span{name: name, cell: cell, parent: parent, start: start, end: end, alloc: ms.TotalAlloc - alloc0}), err
}

// open starts a span whose end is set later by close; it is the parent
// handle for a group of do calls.
func (r *recorder) open(name, cell string, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(span{name: name, cell: cell, parent: parent, start: time.Since(r.t0)})
}

func (r *recorder) close(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[i].end = time.Since(r.t0)
	r.mu.Unlock()
}

// add records a span measured by the caller and returns its index.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// at converts an absolute time to the recorder's clock.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.t0) }

// sum totals the duration and allocation of every span named name whose
// enclosing chain includes root (root < 0 matches every span).
func (r *recorder) sum(name string, root int) (time.Duration, uint64) {
	var d time.Duration
	var alloc uint64
	for i, s := range r.spans {
		if s.name == name && r.under(i, root) {
			d += s.dur()
			alloc += s.alloc
		}
	}
	return d, alloc
}

func (r *recorder) under(i, root int) bool {
	if root < 0 {
		return true
	}
	for ; i >= 0; i = r.spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}

// writeChrome writes the spans as Chrome-trace JSON ("X" complete events),
// which Perfetto and chrome://tracing open directly.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{}
		if s.cell != "" {
			args["cell"] = s.cell
		}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].name
		}
		if s.alloc > 0 {
			args["alloc_bytes"] = s.alloc
		}
		layer, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{
			Name: s.name, Cat: layer, Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid, Args: args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package runner

import (
	"encoding/json"
	"fmt"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/durable"
)

// This file is the fabric coordinator's crash journal: every board
// mutation that represents acknowledged work — a job posted, a cell
// outcome recorded, a job collected — is appended to a JSON-lines file
// before the coordinator's answer leaves the process. A SIGKILLed
// coordinator restarted on the same journal replays it and comes back
// with completions intact: workers re-lease only the genuinely
// unfinished ranges, and a client that resubmits the identical request
// attaches to the replayed job (jobs are keyed by request content, see
// JobKey) instead of starting the sweep over.
//
// The journal is a durable.Log, like the sweep progress journal, with
// its torn-tail / loud-corrupt-middle replay and its down-on-first-
// failure latch: a board whose journal is down keeps serving and only
// loses restart coverage.

// boardRecord is one journal line.
type boardRecord struct {
	Op      string       `json:"op"`                // "post", "cell", "forget"
	Job     string       `json:"job"`               // board job key (JobKey)
	Total   int          `json:"total,omitempty"`   // post: cell count
	Request []byte       `json:"request,omitempty"` // post: serialized request
	Outcome *CellOutcome `json:"outcome,omitempty"` // cell: one completion
}

// NewJournaledBoard is NewBoard plus a crash journal at path: existing
// records are replayed into the fresh board (missing file = empty
// journal), pending ranges are rebuilt from the gaps, then the file is
// opened for appending. fsys is the filesystem appends go through
// (nil = the real one; the chaos harness injects its sick disk here —
// replay reads are never faulted, damage is discovered by content).
// logf, when non-nil, receives replay and degrade notices.
func NewJournaledBoard(ttl time.Duration, chunk int, path string, fsys chaos.FS, logf func(format string, args ...any)) (*Board, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	b := NewBoard(ttl, chunk)
	b.mu.Lock()
	replayed := 0
	err := durable.Replay(path, func(line []byte) error {
		var rec boardRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if err := b.applyRecordLocked(&rec); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err == nil {
		b.journal, err = durable.OpenLog(fsys, path)
	}
	b.logf = logf
	b.rebuildPendingLocked()
	jobs := len(b.order)
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("runner: board journal: %w", err)
	}
	if replayed > 0 {
		logf("fabric: replayed %d journal record(s) from %s: %d unfinished job(s) restored", replayed, path, jobs)
	}
	return b, nil
}

// applyRecordLocked replays one journal record. Caller holds b.mu.
func (b *Board) applyRecordLocked(rec *boardRecord) error {
	switch rec.Op {
	case "post":
		if rec.Total <= 0 {
			return fmt.Errorf("post record for %q has no cells", rec.Job)
		}
		if _, ok := b.jobs[rec.Job]; ok {
			return fmt.Errorf("job %q posted twice", rec.Job)
		}
		b.jobs[rec.Job] = newBoardJob(rec.Request, rec.Total, b.chunk)
		b.order = append(b.order, rec.Job)
	case "cell":
		j := b.jobs[rec.Job]
		if j == nil {
			return fmt.Errorf("cell record for unposted job %q", rec.Job)
		}
		o := rec.Outcome
		if o == nil {
			return fmt.Errorf("cell record for %q has no outcome", rec.Job)
		}
		if j.finished {
			return nil // late duplicate journaled after a failure record
		}
		if o.Err != "" {
			b.applyFailureLocked(j, o)
			return nil
		}
		if o.Index < 0 || o.Index >= j.total {
			return fmt.Errorf("outcome index %d out of range [0,%d)", o.Index, j.total)
		}
		if j.outcomes[o.Index] != nil {
			return nil
		}
		j.outcomes[o.Index] = o
		j.done++
		if j.done == j.total {
			j.finished = true
			close(j.doneCh)
		}
	case "forget":
		if _, ok := b.jobs[rec.Job]; !ok {
			return nil
		}
		delete(b.jobs, rec.Job)
		for i, id := range b.order {
			if id == rec.Job {
				b.order = append(b.order[:i], b.order[i+1:]...)
				break
			}
		}
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// rebuildPendingLocked recomputes every unfinished job's pending list
// from its missing outcomes, chunked like fresh posts. Called once
// after replay — no leases survive a restart, so everything not
// completed is pending. Caller holds b.mu.
func (b *Board) rebuildPendingLocked() {
	for _, j := range b.jobs {
		if j.finished {
			continue
		}
		j.pending = j.pending[:0]
		for lo := 0; lo < j.total; {
			if j.outcomes[lo] != nil {
				lo++
				continue
			}
			hi := lo
			for hi < j.total && hi-lo < b.chunk && j.outcomes[hi] == nil {
				hi++
			}
			j.pending = append(j.pending, [2]int{lo, hi})
			lo = hi
		}
	}
}

// appendJournalLocked writes one record, logging the failure that
// takes the journal down. Caller holds b.mu.
func (b *Board) appendJournalLocked(rec boardRecord) {
	if b.journal == nil {
		return
	}
	if err := b.journal.Append(&rec); err != nil {
		b.logf("fabric: board journal disabled after write failure (restart coverage lost, job unaffected): %v", err)
	}
}

// JournalDegraded reports whether the board's crash journal has shut
// itself off after a write failure.
func (b *Board) JournalDegraded() bool {
	return b.journal != nil && b.journal.Down()
}

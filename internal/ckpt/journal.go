package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"

	"orderlight/internal/durable"
	"orderlight/internal/fault"
	"orderlight/internal/stats"
)

// JournalEntry records one completed experiment cell: its identity and
// everything needed to reconstruct the cell's Result without
// re-simulating. The progress journal is a durable.Log holding one
// JSON-encoded entry per line.
type JournalEntry struct {
	Key         string         // human-readable cell key
	Hash        string         // cell identity hash (the resume key)
	Run         *stats.Run     // the cell's statistics
	HostLatency float64        // mean host-load latency in core cycles
	HostServed  int64          // host loads served
	Fault       *fault.Verdict // oracle verdict; nil when unfaulted
}

// LoadJournal replays a progress journal into a map keyed by cell hash,
// with durable.Replay's torn-tail and corrupt-middle rules. A missing
// file is an empty journal.
func LoadJournal(path string) (map[string]JournalEntry, error) {
	out := make(map[string]JournalEntry)
	err := durable.Replay(path, func(line []byte) error {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Hash == "" {
			return errors.New("entry has no cell hash")
		}
		out[e.Hash] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ckpt: journal: %w", err)
	}
	return out, nil
}

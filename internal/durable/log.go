package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"orderlight/internal/chaos"
)

// Log is an append-only JSON-lines file. Each Append is one marshaled
// line written in a single call and synced before it returns, so an
// acknowledged record survives a crash and a crash leaves at most one
// torn final line, which Replay tolerates. Append is safe for
// concurrent use; separate Logs on one file (separate processes) keep
// their lines intact through O_APPEND.
//
// The first failed Append takes the log down for good: writing past a
// possibly torn line would turn Replay's tolerable torn tail into a
// loud corrupt middle. Later Appends write nothing and return nil, so
// a caller counts exactly one failure per log.
type Log struct {
	mu   sync.Mutex
	f    chaos.File
	down bool
}

// OpenLog opens (creating if needed) the log at path for appending
// through fsys (nil means the real filesystem). A torn final line left
// by an earlier crash is cut off first; otherwise the next record would
// be glued onto it and lost on replay.
func OpenLog(fsys chaos.FS, path string) (*Log, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	if data, err := fsys.ReadFile(path); err == nil && len(data) > 0 && data[len(data)-1] != '\n' {
		if err := fsys.Truncate(path, int64(bytes.LastIndexByte(data, '\n')+1)); err != nil {
			return nil, fmt.Errorf("durable: open %s: %w", path, err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Append writes v as one JSON line. It returns an error only for the
// failure that takes the log down.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil
	}
	if err == nil {
		_, err = l.f.Write(append(line, '\n'))
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.down = true
		return fmt.Errorf("durable: append %s: %w", l.f.Name(), err)
	}
	return nil
}

// Down reports whether a failed Append has taken the log down.
func (l *Log) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Replay feeds every line of the log at path to apply, in order. A
// missing file is an empty log and blank lines are skipped. A line
// apply rejects is forgiven only as the final line, the footprint of a
// crash mid-append whose record was never acknowledged; anywhere else
// it is an error naming the line, because records after it were
// acknowledged and silently dropping them would lose work. Replay reads
// with the os package: damage is injected on the write path and found
// here by content.
func Replay(path string, apply func(line []byte) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: replay %s: %w", path, err)
	}
	var torn error
	for n := 1; len(data) > 0; n++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if torn != nil {
			return torn
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := apply(line); err != nil {
			torn = fmt.Errorf("durable: %s line %d: %w", path, n, err)
		}
	}
	return nil
}

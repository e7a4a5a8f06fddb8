package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"orderlight/internal/chaos"
)

type entry struct {
	ID int `json:"id"`
}

// replayIDs replays path, rejecting lines that are not entries.
func replayIDs(path string) ([]int, error) {
	var ids []int
	err := Replay(path, func(line []byte) error {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		ids = append(ids, e.ID)
		return nil
	})
	return ids, err
}

func appendIDs(t *testing.T, path string, ids ...int) {
	t.Helper()
	l, err := OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, id := range ids {
		if err := l.Append(entry{id}); err != nil {
			t.Fatal(err)
		}
	}
}

func writeRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	appendIDs(t, path, 1, 2)
	appendIDs(t, path, 3)
	if ids, err := replayIDs(path); err != nil || fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("replay = %v, %v; want [1 2 3]", ids, err)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if ids, err := replayIDs(filepath.Join(t.TempDir(), "absent")); err != nil || len(ids) != 0 {
		t.Fatalf("replay = %v, %v; want empty", ids, err)
	}
}

func TestReplayUnreadable(t *testing.T) {
	if _, err := replayIDs(t.TempDir()); err == nil {
		t.Fatal("replaying a directory succeeded")
	}
}

func TestReplaySkipsBlankLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	writeRaw(t, path, "{\"id\":1}\n\n  \n{\"id\":2}\n")
	if ids, err := replayIDs(path); err != nil || fmt.Sprint(ids) != "[1 2]" {
		t.Fatalf("replay = %v, %v; want [1 2]", ids, err)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	appendIDs(t, path, 1)
	writeRaw(t, path, `{"id":`)
	if ids, err := replayIDs(path); err != nil || fmt.Sprint(ids) != "[1]" {
		t.Fatalf("replay = %v, %v; want [1]", ids, err)
	}
}

func TestReplayCorruptMiddleIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	writeRaw(t, path, "{\"id\":1}\n{\"id\":\n{\"id\":3}\n")
	if _, err := replayIDs(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("replay = %v, want an error naming line 2", err)
	}
}

// TestOpenLogCutsTornTail: reopening after a crash mid-append must not
// glue the next record onto the torn line, which would lose it (and
// every later record would make the glued line a corrupt middle).
func TestOpenLogCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	appendIDs(t, path, 1)
	writeRaw(t, path, `{"id":`)
	appendIDs(t, path, 2)
	appendIDs(t, path, 3)
	if ids, err := replayIDs(path); err != nil || fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("replay = %v, %v; want [1 2 3]", ids, err)
	}
}

func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := l.Append(entry{w*100 + i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if ids, err := replayIDs(path); err != nil || len(ids) != 100 {
		t.Fatalf("replay = %d entries, %v; want 100", len(ids), err)
	}
}

// sickFS fails every write and sync on files it opens.
type sickFS struct{ chaos.FS }

func (s sickFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return sickFile{f}, nil
}

type sickFile struct{ chaos.File }

func (f sickFile) Write([]byte) (int, error) {
	return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
}

// TestLogLatchesDown: the first failed append reports its error and
// takes the log down; later appends write nothing and report nothing,
// so a caller counts one failure per log.
func TestLogLatchesDown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(sickFS{chaos.OS}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Down() {
		t.Fatal("fresh log is down")
	}
	if err := l.Append(entry{1}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first append = %v, want ENOSPC", err)
	}
	if !l.Down() {
		t.Fatal("failed append did not take the log down")
	}
	if err := l.Append(entry{2}); err != nil {
		t.Fatalf("append on a down log = %v, want nil", err)
	}
}

func TestLogLatchesOnUnencodable(t *testing.T) {
	l, err := OpenLog(nil, filepath.Join(t.TempDir(), "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make(chan int)); err == nil || !l.Down() {
		t.Fatalf("unencodable append = %v, down %v; want an error and a down log", err, l.Down())
	}
}

func TestOpenLogMissingDir(t *testing.T) {
	if _, err := OpenLog(nil, filepath.Join(t.TempDir(), "absent", "log.jsonl")); err == nil {
		t.Fatal("opening a log in a missing directory succeeded")
	}
}

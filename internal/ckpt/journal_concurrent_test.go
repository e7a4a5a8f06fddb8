package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"orderlight/internal/durable"
	"orderlight/internal/stats"
)

// TestJournalConcurrentWriters models the fabric shape: two worker
// processes (two independent durable.Log handles, no shared mutex) append
// completion records to one file at the same time. O_APPEND plus
// one-write-per-entry must keep every line intact.
func TestJournalConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const perWriter = 50

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		j, err := durable.OpenLog(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, j *durable.Log) {
			defer wg.Done()
			defer j.Close()
			for i := 0; i < perWriter; i++ {
				e := JournalEntry{
					Key:  fmt.Sprintf("w%d-cell%d", w, i),
					Hash: fmt.Sprintf("w%d-%04d", w, i),
					Run:  &stats.Run{},
				}
				if err := j.Append(e); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w, j)
	}
	wg.Wait()

	got, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*perWriter {
		t.Fatalf("journal holds %d entries, want %d", len(got), 2*perWriter)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := got[fmt.Sprintf("w%d-%04d", w, i)]; !ok {
				t.Fatalf("entry w%d-%04d lost", w, i)
			}
		}
	}
}

// TestJournalTornTailAfterConcurrentWrites: a crash mid-append leaves
// a partial final line; everything the two writers acknowledged before
// it must still load.
func TestJournalTornTailAfterConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		j, err := durable.OpenLog(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, j *durable.Log) {
			defer wg.Done()
			defer j.Close()
			for i := 0; i < 10; i++ {
				j.Append(JournalEntry{Hash: fmt.Sprintf("w%d-%d", w, i), Run: &stats.Run{}})
			}
		}(w, j)
	}
	wg.Wait()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Hash":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(got) != 20 {
		t.Fatalf("journal holds %d entries, want 20", len(got))
	}
}

// TestJournalCorruptMiddleIsLoud: damage anywhere but the tail means
// the journal is corrupt, not merely torn — later appends landed after
// the damage, so silently resuming would drop acknowledged work.
func TestJournalCorruptMiddleIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := durable.OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(JournalEntry{Hash: "a", Run: &stats.Run{}})
	j.Close()

	// A torn line that was NOT the final write: another writer's entry
	// landed after it.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("{\"Hash\":\"torn\n")
	f.Close()
	j2, err := durable.OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(JournalEntry{Hash: "b", Run: &stats.Run{}})
	j2.Close()

	if _, err := LoadJournal(path); err == nil {
		t.Fatal("corrupt middle loaded silently")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v does not name the corrupt line", err)
	}
}

package rcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The OLRES1 header layout TestDecodeLadder damages field by field.
const (
	magic     = "OLRES1"
	headerLen = len(magic) + 2 + 8 + sha256.Size
)

func TestRoundTripDisk(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	want := []byte("payload bytes")
	if err := c.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 store", s)
	}
}

// A second Cache opened on the same directory must see the first one's
// entries — that is the whole point of the disk layer.
func TestReopenSurvivesProcess(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("cell|abc", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("cell|abc")
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("reopened Get = %v, %v", got, ok)
	}
	if s := c2.Stats(); s.BytesRead != 3 {
		t.Fatalf("BytesRead = %d, want 3", s.BytesRead)
	}
}

func TestMemoryOnly(t *testing.T) {
	c, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit for absent key")
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := Open("", 10) // tiny budget: two 4-byte entries fit, three don't
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(k, []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived past the byte budget")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recent entry %q evicted", k)
		}
	}
	// An entry larger than the whole budget is skipped, not crash-looped.
	if err := c.Put("big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("over-budget entry landed in memory-only cache")
	}
}

// Disk entries evicted from memory are refetched transparently.
func TestDiskBackfillAfterEviction(t *testing.T) {
	c, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("bbbbbbbb")); err != nil { // evicts a
		t.Fatal(err)
	}
	got, ok := c.Get("a")
	if !ok || string(got) != "aaaa" {
		t.Fatalf("disk backfill Get = %q, %v", got, ok)
	}
}

func TestDecodeLadder(t *testing.T) {
	blob, err := Encode("key", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x40
		return out
	}
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short magic", blob[:3], ErrTruncated},
		{"short header", blob[:headerLen-1], ErrTruncated},
		{"short payload", blob[:len(blob)-1], ErrTruncated},
		{"bad magic", flip(blob, 0), ErrFormat},
		{"future version", flip(blob, len(magic)), ErrVersion},
		{"trailing garbage", append(append([]byte(nil), blob...), 0), ErrFormat},
		{"flipped payload byte", flip(blob, headerLen), ErrChecksum},
		{"flipped digest byte", flip(blob, len(magic)+10), ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(tc.blob); !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
	if k, d, err := Decode(blob); err != nil || k != "key" || string(d) != "data" {
		t.Fatalf("clean Decode = %q, %q, %v", k, d, err)
	}
}

// Every corruption shape falls back to a miss, removes the damaged
// blob, and a fresh Put heals the slot — the recompute path.
func TestCorruptBlobIsMissNeverServed(t *testing.T) {
	corruptions := []struct {
		name   string
		damage func(path string, blob []byte) error
	}{
		{"truncated", func(p string, b []byte) error { return os.WriteFile(p, b[:len(b)/2], 0o644) }},
		{"bit-flipped payload", func(p string, b []byte) error {
			b = append([]byte(nil), b...)
			b[len(b)-1] ^= 1
			return os.WriteFile(p, b, 0o644)
		}},
		{"zero length", func(p string, b []byte) error { return os.WriteFile(p, nil, 0o644) }},
		{"foreign key blob", func(p string, b []byte) error {
			other, err := Encode("some other key", []byte("stale"))
			if err != nil {
				return err
			}
			return os.WriteFile(p, other, 0o644)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			path := c.path("k")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(path, blob); err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(dir, 0) // bypass the memory front
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := fresh.Get("k"); ok {
				t.Fatalf("served damaged blob: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged blob not removed: %v", err)
			}
			if s := fresh.Stats(); s.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", s.Corrupt)
			}
			// Recompute path: a new Put re-populates and serves again.
			if err := fresh.Put("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			if got, ok := fresh.Get("k"); !ok || string(got) != "good" {
				t.Fatalf("healed Get = %q, %v", got, ok)
			}
		})
	}
}

// Put leaves no stray temp files behind.
func TestPutAtomicNoStrayTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("stray temp files: %v", ents)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				key := string(rune('a' + (g+i)%4))
				err = c.Put(key, []byte(key))
				if v, ok := c.Get(key); ok && string(v) != key {
					err = errors.New("wrong payload for " + key)
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

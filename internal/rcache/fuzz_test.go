package rcache

import (
	"bytes"
	"testing"
)

// fuzzSeedBlob is a small valid blob seeding the decoder fuzzer near
// the interesting surface.
func fuzzSeedBlob(tb testing.TB) []byte {
	blob, err := Encode("cell|cfg=77bf45bd7a9542cc|add|131072|skip", []byte("gob payload"))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzResultCacheDecode throws arbitrary bytes at the blob decoder.
// The invariants: Decode never panics, and anything it accepts
// survives a re-encode/re-decode round trip with identical key and
// payload — a damaged blob is always a typed error (which Get turns
// into a miss), never a crash or a silently wrong result. The
// committed corpus and the checks shared by every envelope owner live
// in internal/durable's FuzzEnvelopeDecode; this target fuzzes the
// result cache alone.
func FuzzResultCacheDecode(f *testing.F) {
	valid := fuzzSeedBlob(f)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)-1] ^= 0x01
	f.Add(mutated)
	wrongVer := append([]byte(nil), valid...)
	wrongVer[len(magic)+1] = 0x07
	f.Add(wrongVer)
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(key, payload)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		key2, payload2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if key2 != key || !bytes.Equal(payload2, payload) {
			t.Fatalf("content changed across round trip: %q/%q vs %q/%q", key2, payload2, key, payload)
		}
	})
}

// TestFuzzSeedsAreWellFormed pins the seed: it decodes, and carries the expected magic.
func TestFuzzSeedsAreWellFormed(t *testing.T) {
	valid := fuzzSeedBlob(t)
	if _, _, err := Decode(valid); err != nil {
		t.Fatalf("seed blob does not decode: %v", err)
	}
	if !bytes.HasPrefix(valid, []byte(magic)) {
		t.Fatal("seed blob lost its magic")
	}
}

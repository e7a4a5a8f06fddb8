package ckpt_test

import (
	"bytes"
	"testing"

	"orderlight/internal/ckpt"
)

// fuzzSeedCheckpoint is a small valid checkpoint container (no machine
// state) used to seed the decoder fuzzer near the interesting surface.
func fuzzSeedCheckpoint(tb testing.TB) []byte {
	data, err := ckpt.Encode(&ckpt.Checkpoint{Meta: ckpt.Meta{
		CellHash: "00ff", Cell: "fuzz", Kernel: "add", Engine: "skip",
		Seed: 1, Bytes: 64, Fault: "none", CoreCycle: 10, SimTime: 170,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint
// decoder. The invariants: Decode never panics, and anything it
// accepts survives a re-encode/re-decode round trip with identical
// metadata — a corrupt file is always a typed error, never a crash or
// a silently wrong checkpoint. The committed corpus and the checks
// shared by every envelope owner live in internal/durable's
// FuzzEnvelopeDecode; this target fuzzes the checkpoint alone.
func FuzzCheckpointDecode(f *testing.F) {
	valid := fuzzSeedCheckpoint(f)
	f.Add([]byte{})
	f.Add([]byte("OLCKPT"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)-1] ^= 0x01
	f.Add(mutated)
	wrongVer := append([]byte(nil), valid...)
	wrongVer[7] = 0x07
	f.Add(wrongVer)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ckpt.Decode(data)
		if err != nil {
			return
		}
		re, err := ckpt.Encode(c)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		c2, err := ckpt.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if c2.Meta != c.Meta {
			t.Fatalf("metadata changed across round trip: %+v vs %+v", c2.Meta, c.Meta)
		}
	})
}

// TestFuzzSeedsAreWellFormed pins the seed: it decodes, and it carries the format magic.
func TestFuzzSeedsAreWellFormed(t *testing.T) {
	valid := fuzzSeedCheckpoint(t)
	if _, err := ckpt.Decode(valid); err != nil {
		t.Fatalf("seed checkpoint does not decode: %v", err)
	}
	if !bytes.HasPrefix(valid, []byte("OLCKPT")) {
		t.Fatal("seed checkpoint lost its magic")
	}
}

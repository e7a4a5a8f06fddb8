package twin_test

import (
	"bytes"
	"testing"

	"orderlight/internal/twin"
)

// fuzzSeedArtifact is a small valid calibration artifact used to seed
// the decoder fuzzer near the interesting surface.
func fuzzSeedArtifact(tb testing.TB) []byte {
	data, err := twin.Encode(&twin.Artifact{
		ConfigHash: "00ff00ff00ff00ff", Channels: 16,
		BytesMin: 16 << 10, BytesMax: 256 << 10,
		Anchors: []int64{16 << 10, 64 << 10, 256 << 10}, Seed: 1,
		Entries: []twin.Entry{{
			Kernel: "add", Primitive: "fence", TSBytes: 256,
			Cycles: twin.Lin{F: 123, S: 45.6}, FenceStall: twin.Lin{F: 1, S: 2},
			Correct: true, CyclesBound: 0.02, FenceBound: 0.03, Cells: 5,
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCalibrationDecode throws arbitrary bytes at the calibration
// decoder. The invariants: Decode never panics, and anything it
// accepts survives a re-encode/re-decode round trip with an identical
// content hash — a corrupt artifact is always a typed error, never a
// crash or a silently different calibration. The committed corpus and
// the checks shared by every envelope owner live in internal/durable's
// FuzzEnvelopeDecode; this target fuzzes the calibration alone.
func FuzzCalibrationDecode(f *testing.F) {
	valid := fuzzSeedArtifact(f)
	f.Add([]byte{})
	f.Add([]byte("OLCAL1"))
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
		a, err := twin.Decode(data)
		if err != nil {
			return
		}
		re, err := twin.Encode(a)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		a2, err := twin.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if a2.Hash() != a.Hash() {
			t.Fatalf("content hash changed across round trip: %s vs %s", a2.Hash(), a.Hash())
		}
	})
}

// TestFuzzSeedsAreWellFormed pins the seed: it decodes, and it carries the format magic.
func TestFuzzSeedsAreWellFormed(t *testing.T) {
	valid := fuzzSeedArtifact(t)
	if _, err := twin.Decode(valid); err != nil {
		t.Fatalf("seed artifact does not decode: %v", err)
	}
	if !bytes.HasPrefix(valid, []byte("OLCAL1")) {
		t.Fatal("seed artifact lost its magic")
	}
}

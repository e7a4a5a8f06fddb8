package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"orderlight/internal/ckpt"
	"orderlight/internal/twin"
)

// corpusSeed reads one committed fuzz corpus file: the "go test fuzz
// v1" header and a single []byte literal.
func corpusSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestCommittedSeedsDecode pins every committed corpus entry, each
// written by its owner before the envelope code was shared, to the
// outcome it had then: the named sentinel, or for "valid" the exact
// decoded value.
func TestCommittedSeedsDecode(t *testing.T) {
	wantSentinel := map[string]int{ // index into truncated, format, version, checksum
		"empty": 0, "magic-only": 0, "truncated": 0,
		"trailing-garbage": 1, "wrong-version": 2, "bit-flip": 3,
	}
	wantValid := map[string]any{
		"ckpt": &ckpt.Checkpoint{Meta: ckpt.Meta{
			CellHash: "00ff", Cell: "fuzz", Kernel: "add", Engine: "skip",
			Seed: 1, Bytes: 64, Fault: "none", CoreCycle: 10, SimTime: 170,
		}},
		"rcache": [2]string{"cell|cfg=77bf45bd7a9542cc|add|131072|skip", "gob payload"},
		"twin": &twin.Artifact{
			ConfigHash: "00ff00ff00ff00ff", Channels: 16,
			BytesMin: 16 << 10, BytesMax: 256 << 10,
			Anchors: []int64{16 << 10, 64 << 10, 256 << 10}, Seed: 1,
			Entries: []twin.Entry{{
				Kernel: "add", Primitive: "fence", TSBytes: 256,
				Cycles: twin.Lin{F: 123, S: 45.6}, FenceStall: twin.Lin{F: 1, S: 2},
				Correct: true, CyclesBound: 0.02, FenceBound: 0.03, Cells: 5,
			}},
		},
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEnvelopeDecode", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 21 {
		t.Fatalf("found %d committed seeds, want 21 (7 per owner)", len(files))
	}
	for _, path := range files {
		name := filepath.Base(path)
		prefix, seedCase, _ := strings.Cut(name, "-")
		var o *owner
		for i := range owners {
			if owners[i].name == prefix {
				o = &owners[i]
			}
		}
		if o == nil {
			t.Fatalf("%s: no owner %q", name, prefix)
		}
		data := corpusSeed(t, path)
		v, err := o.decode(data)
		if seedCase == "valid" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			} else if !reflect.DeepEqual(v, wantValid[prefix]) {
				t.Errorf("%s decodes to %+v, want %+v", name, v, wantValid[prefix])
			}
			continue
		}
		want, ok := wantSentinel[seedCase]
		if !ok {
			t.Fatalf("%s: unknown seed case %q", name, seedCase)
		}
		if k, serr := o.sentinel(err); serr != nil || k != want {
			t.Errorf("%s: Decode = %v, want sentinel #%d", name, err, want)
		}
	}
}

// TestCalibrationArtifactDecodes decodes the committed calibration
// artifact through twin's loader and pins its domain, and checks its
// envelope re-seals byte-identically. (`make calibrate` and CI's
// check-calibration job pin the full bytes: gob type ids are assigned
// per process, so a re-encode reproduces them only in a process that,
// like olwhatif, encodes nothing else first.)
func TestCalibrationArtifactDecodes(t *testing.T) {
	path := filepath.Join("..", "..", "calibration.olcal")
	art, err := twin.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := []any{art.ConfigHash, art.Channels, art.BytesMin, art.BytesMax, art.Anchors, art.Seed, len(art.Entries)}
	want := []any{"0c67a674d90e6511", 16, int64(16 << 10), int64(256 << 10), []int64{16 << 10, 64 << 10, 256 << 10}, uint64(1), 144}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("calibration domain = %v, want %v", got, want)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := owners[2].format
	payload, err := tw.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tw.Seal(payload), blob) {
		t.Error("calibration envelope does not re-seal byte-identically")
	}
}

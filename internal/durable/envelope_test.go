package durable

import (
	"errors"
	"testing"
)

var (
	errTrunc    = errors.New("test: truncated")
	errFormat   = errors.New("test: format")
	errVersion  = errors.New("test: version")
	errChecksum = errors.New("test: checksum")
)

var testFormat = Format{
	Magic: "OLTEST", Version: 3,
	ErrTruncated: errTrunc, ErrFormat: errFormat, ErrVersion: errVersion, ErrChecksum: errChecksum,
}

type record struct {
	Name string
	N    []int64
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := record{Name: "cell", N: []int64{1, -2, 3}}
	blob, err := testFormat.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	if hl := testFormat.headerLen(); cap(blob) != len(blob) || len(blob) <= hl {
		t.Fatalf("blob len %d cap %d, want one exact allocation past the %d-byte header", len(blob), cap(blob), hl)
	}
	var out record
	if err := testFormat.Decode(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.N) != 3 || out.N[1] != -2 {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

// TestEnvelopeLadder damages a valid envelope field by field; each
// failure must wrap exactly the sentinel for its mode.
func TestEnvelopeLadder(t *testing.T) {
	blob, err := testFormat.Encode(&record{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	hl := testFormat.headerLen()
	flip := func(i int) []byte {
		out := append([]byte(nil), blob...)
		out[i] ^= 0x40
		return out
	}
	garbage := testFormat.seal([]byte("not gob"))
	for _, tc := range []struct {
		name string
		blob []byte
		want error
	}{
		{"empty", nil, errTrunc},
		{"short magic", blob[:3], errTrunc},
		{"bad magic", flip(0), errFormat},
		{"short header", blob[:hl-1], errTrunc},
		{"future version", flip(len(testFormat.Magic) + 1), errVersion},
		{"short payload", blob[:len(blob)-1], errTrunc},
		{"trailing garbage", append(append([]byte(nil), blob...), 0), errFormat},
		{"flipped digest byte", flip(len(testFormat.Magic) + 10), errChecksum},
		{"flipped payload byte", flip(hl), errChecksum},
		{"undecodable payload", garbage, errFormat},
	} {
		err := testFormat.Decode(tc.blob, &record{})
		n := 0
		for _, s := range []error{errTrunc, errFormat, errVersion, errChecksum} {
			if errors.Is(err, s) {
				n++
			}
		}
		if !errors.Is(err, tc.want) || n != 1 {
			t.Errorf("%s: Decode = %v, want exactly %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeRejectsUnencodable(t *testing.T) {
	if _, err := testFormat.Encode(make(chan int)); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
}

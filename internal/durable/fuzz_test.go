package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"orderlight/internal/ckpt"
	"orderlight/internal/durable"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/twin"
)

// owner is one durable envelope as its package exposes it: the public
// codec, and a Format mirroring the owner's magic, version and
// sentinels (truncated, format, version, checksum, in that order).
type owner struct {
	name   string
	format durable.Format
	decode func([]byte) (any, error)
	encode func(any) ([]byte, error)
}

func newOwner(name, magic string, version uint16, sentinels [4]error, decode func([]byte) (any, error), encode func(any) ([]byte, error)) owner {
	return owner{name, durable.Format{
		Magic: magic, Version: version,
		ErrTruncated: sentinels[0], ErrFormat: sentinels[1], ErrVersion: sentinels[2], ErrChecksum: sentinels[3],
	}, decode, encode}
}

var owners = []owner{
	newOwner("ckpt", "OLCKPT", ckpt.Version,
		[4]error{olerrors.ErrCheckpointTruncated, olerrors.ErrCheckpointFormat, olerrors.ErrCheckpointVersion, olerrors.ErrCheckpointChecksum},
		func(b []byte) (any, error) { return ckpt.Decode(b) },
		func(v any) ([]byte, error) { return ckpt.Encode(v.(*ckpt.Checkpoint)) }),
	newOwner("rcache", "OLRES1", rcache.Version,
		[4]error{rcache.ErrTruncated, rcache.ErrFormat, rcache.ErrVersion, rcache.ErrChecksum},
		func(b []byte) (any, error) {
			key, data, err := rcache.Decode(b)
			return [2]string{key, string(data)}, err
		},
		func(v any) ([]byte, error) { kv := v.([2]string); return rcache.Encode(kv[0], []byte(kv[1])) }),
	newOwner("twin", "OLCAL1", twin.Version,
		[4]error{twin.ErrTruncated, twin.ErrFormat, twin.ErrVersion, twin.ErrChecksum},
		func(b []byte) (any, error) { return twin.Decode(b) },
		func(v any) ([]byte, error) { return twin.Encode(v.(*twin.Artifact)) }),
}

// sentinel returns the index of the one owner sentinel err wraps, or
// an error when it wraps none or several.
func (o *owner) sentinel(err error) (int, error) {
	found, n := -1, 0
	for i, s := range []error{o.format.ErrTruncated, o.format.ErrFormat, o.format.ErrVersion, o.format.ErrChecksum} {
		if errors.Is(err, s) {
			found, n = i, n+1
		}
	}
	if n != 1 {
		return -1, fmt.Errorf("%s: error %q wraps %d sentinels, want exactly 1", o.name, err, n)
	}
	return found, nil
}

// seedValues are small valid payloads, one per owner.
func seedValues(tb testing.TB) [][]byte {
	cp, err := ckpt.Encode(&ckpt.Checkpoint{Meta: ckpt.Meta{
		CellHash: "00ff", Cell: "fuzz", Kernel: "add", Engine: "skip",
		Seed: 1, Bytes: 64, Fault: "none", CoreCycle: 10, SimTime: 170,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	rc, err := rcache.Encode("cell|cfg=77bf45bd7a9542cc|add|131072|skip", []byte("gob payload"))
	if err != nil {
		tb.Fatal(err)
	}
	tw, err := twin.Encode(&twin.Artifact{
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
	return [][]byte{cp, rc, tw}
}

// FuzzEnvelopeDecode throws arbitrary bytes at every durable envelope
// in the repository (checkpoints, result-cache blobs, the twin
// calibration) through each owner's public Decode. For every owner:
//   - Decode never panics;
//   - every failure wraps exactly one of the owner's four sentinels,
//     the same one the bare envelope check reports;
//   - an input whose envelope verifies re-seals byte-identically, and a
//     value the owner accepts survives Encode/Decode unchanged.
func FuzzEnvelopeDecode(f *testing.F) {
	for i, valid := range seedValues(f) {
		f.Add([]byte{})
		f.Add([]byte(owners[i].format.Magic))
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(append(append([]byte(nil), valid...), 0xAA))
		mutated := append([]byte(nil), valid...)
		mutated[len(mutated)-1] ^= 0x01
		f.Add(mutated)
		wrongVer := append([]byte(nil), valid...)
		wrongVer[7] = 0x07
		f.Add(wrongVer)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := range owners {
			if err := checkOwner(&owners[i], data); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func checkOwner(o *owner, data []byte) error {
	payload, oerr := o.format.Open(data)
	v, err := o.decode(data)
	if oerr != nil {
		if err == nil {
			return fmt.Errorf("%s: Decode accepted an envelope that fails verification (%v)", o.name, oerr)
		}
		k, serr := o.sentinel(err)
		if serr != nil {
			return serr
		}
		if want, _ := o.sentinel(oerr); k != want {
			return fmt.Errorf("%s: Decode reports %q, the envelope check %q", o.name, err, oerr)
		}
		return nil
	}
	if sealed := o.format.Seal(payload); !bytes.Equal(sealed, data) {
		return fmt.Errorf("%s: verified envelope does not re-seal byte-identically", o.name)
	}
	if err != nil {
		if k, serr := o.sentinel(err); serr != nil || k != 1 {
			return fmt.Errorf("%s: verified envelope with a bad payload reports %q, want the format sentinel", o.name, err)
		}
		return nil
	}
	re, err := o.encode(v)
	if err != nil {
		return fmt.Errorf("%s: accepted value does not re-encode: %v", o.name, err)
	}
	v2, err := o.decode(re)
	if err != nil {
		return fmt.Errorf("%s: re-encoded value does not decode: %v", o.name, err)
	}
	if !reflect.DeepEqual(v2, v) {
		return fmt.Errorf("%s: value changed across Encode/Decode: %+v vs %+v", o.name, v2, v)
	}
	return nil
}

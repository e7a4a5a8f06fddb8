// Package durable is the one implementation of the repository's
// crash-safe file formats. Checkpoints (internal/ckpt), result-cache
// blobs (internal/rcache) and the twin calibration (internal/twin) are
// Format envelopes published with WriteFile; the sweep progress journal
// and the fabric coordinator's board journal are Logs read back with
// Replay. Every write goes through a chaos.FS, so one injected sick
// disk reaches every store in the process.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// Format is one versioned, checksummed envelope:
//
//	magic | version uint16 | payload length uint64 | sha256(payload) | gob payload
//
// (integers big-endian). The owner supplies the magic, the version and
// its own four failure sentinels; Decode wraps exactly one of them in
// every error it returns, so an owner's errors.Is classification needs
// no mapping code.
type Format struct {
	Magic   string
	Version uint16

	ErrTruncated error // shorter than the header or the declared payload
	ErrFormat    error // bad magic, trailing bytes or an undecodable payload
	ErrVersion   error // a version this build does not read
	ErrChecksum  error // payload does not hash to the header's digest
}

func (f *Format) headerLen() int { return len(f.Magic) + 2 + 8 + sha256.Size }

// Encode renders v as a gob payload inside the envelope.
func (f *Format) Encode(v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("durable: encode %s: %w", f.Magic, err)
	}
	return f.seal(payload.Bytes()), nil
}

// Decode verifies blob's structure and checksum, then gob-decodes its
// payload into v. Nothing reaches the gob decoder until the digest
// matches.
func (f *Format) Decode(blob []byte, v any) error {
	payload, err := f.open(blob)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: payload decode: %v", f.ErrFormat, err)
	}
	return nil
}

// seal wraps payload in the envelope header, in one allocation.
func (f *Format) seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, f.headerLen()+len(payload))
	out = append(out, f.Magic...)
	out = binary.BigEndian.AppendUint16(out, f.Version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// open checks blob's header, length and digest and returns its payload.
func (f *Format) open(blob []byte) ([]byte, error) {
	m, hl := len(f.Magic), f.headerLen()
	if len(blob) < m {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", f.ErrTruncated, len(blob), hl)
	}
	if string(blob[:m]) != f.Magic {
		return nil, fmt.Errorf("%w: bad magic %q", f.ErrFormat, blob[:m])
	}
	if len(blob) < hl {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", f.ErrTruncated, len(blob), hl)
	}
	if ver := binary.BigEndian.Uint16(blob[m:]); ver != f.Version {
		return nil, fmt.Errorf("%w: %s is v%d, this build reads v%d", f.ErrVersion, f.Magic, ver, f.Version)
	}
	declared := binary.BigEndian.Uint64(blob[m+2:])
	payload := blob[hl:]
	if uint64(len(payload)) < declared {
		return nil, fmt.Errorf("%w: payload is %d of %d declared bytes", f.ErrTruncated, len(payload), declared)
	}
	if uint64(len(payload)) > declared {
		return nil, fmt.Errorf("%w: %d bytes of trailing garbage", f.ErrFormat, uint64(len(payload))-declared)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], blob[m+10:hl]) {
		return nil, fmt.Errorf("%w: payload does not match header digest", f.ErrChecksum)
	}
	return payload, nil
}

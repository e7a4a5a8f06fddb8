package twin

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"

	"orderlight/internal/chaos"
	"orderlight/internal/durable"
)

// Version is the current calibration-artifact format version. Decode
// rejects any other version with ErrVersion.
const Version = 1

// Failure sentinels. ErrOutOfConfidence is the twin's single decline
// signal — any query outside the calibrated domain (foreign config,
// unknown or modified spec, footprint outside the anchored range,
// unmodeled primitive) gets it, so callers can escalate to the cycle
// engine with one errors.Is check. Every decode sentinel wraps
// ErrCalibration so "the artifact is unusable" is one classification no
// matter how it broke.
var (
	ErrOutOfConfidence = errors.New("twin: query outside calibrated confidence domain")

	ErrCalibration = errors.New("twin: invalid calibration artifact")
	ErrTruncated   = fmt.Errorf("%w: truncated", ErrCalibration)
	ErrFormat      = fmt.Errorf("%w: format", ErrCalibration)
	ErrVersion     = fmt.Errorf("%w: version", ErrCalibration)
	ErrChecksum    = fmt.Errorf("%w: checksum mismatch", ErrCalibration)
)

// format is the calibration envelope: magic "OLCAL1", failures
// classified by the sentinels above.
var format = durable.Format{
	Magic:        "OLCAL1",
	Version:      Version,
	ErrTruncated: ErrTruncated,
	ErrFormat:    ErrFormat,
	ErrVersion:   ErrVersion,
	ErrChecksum:  ErrChecksum,
}

// Entry is one calibrated model family: the fitted lines and recorded
// error bounds for a (kernel, primitive, temporary-storage) cell class.
// Stall lines are in core cycles, the cycles line in base ticks.
type Entry struct {
	Kernel    string // spec name, e.g. "daxpy"
	Primitive string // "none", "fence" or "orderlight"
	TSBytes   int

	Cycles     Lin  // End-Start, base ticks
	FenceStall Lin  // FenceStallCycles, core cycles
	OLStall    Lin  // OLStallCycles, core cycles
	Correct    bool // functional verdict observed during calibration

	// Recorded error envelope: relative bounds from the cross-check
	// pass (|pred-meas| ≤ bound·|meas| + absolute floor), and the cell
	// count that informed them. Zero bounds mean "never cross-checked"
	// and fail every envelope test — a calibration artifact without a
	// cross-check pass is not trustworthy by construction.
	CyclesBound float64
	FenceBound  float64
	OLBound     float64
	Cells       int
}

// Artifact is the persisted calibration: every fitted entry plus the
// domain it is valid for. It contains no maps and no timestamps, so
// its gob encoding — and therefore Hash — is deterministic and `make
// calibrate` regenerates it byte-identically from pinned seeds.
type Artifact struct {
	ConfigHash string  // NormalizedConfigHash of the base configuration
	Channels   int     // base-config channel count (informational)
	BytesMin   int64   // smallest anchored per-channel footprint
	BytesMax   int64   // largest anchored per-channel footprint
	Anchors    []int64 // per-channel footprints the fit was anchored on
	Seed       uint64  // base-config seed the anchors ran with
	Entries    []Entry // sorted by (Kernel, Primitive, TSBytes)
}

// sortEntries fixes the canonical entry order so encoding is
// reproducible regardless of calibration scheduling.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Primitive != b.Primitive {
			return a.Primitive < b.Primitive
		}
		return a.TSBytes < b.TSBytes
	})
}

// Encode renders the artifact into the OLCAL1 durable envelope.
// Entries are sorted into canonical order first.
func Encode(a *Artifact) ([]byte, error) {
	sortEntries(a.Entries)
	return format.Encode(a)
}

// Decode parses and verifies a calibration blob. Every failure wraps
// exactly one of ErrTruncated, ErrFormat, ErrVersion or ErrChecksum
// (see durable.Format), and so also ErrCalibration.
func Decode(blob []byte) (*Artifact, error) {
	var a Artifact
	if err := format.Decode(blob, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// Hash returns the short content hash of the artifact: the first 16
// hex digits of the sha256 over its canonical gob payload. Manifests
// carry it so every twin answer names the exact calibration it came
// from.
func (a *Artifact) Hash() string {
	sortEntries(a.Entries)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(a); err != nil {
		// Artifact is a plain struct of numbers and strings; gob cannot
		// fail on it. Guard anyway rather than corrupt a hash.
		panic(fmt.Sprintf("twin: artifact not encodable: %v", err))
	}
	sum := sha256.Sum256(payload.Bytes())
	return hex.EncodeToString(sum[:8])
}

// Save writes the artifact to path atomically with durable.WriteFile,
// the same crash discipline as checkpoints and cache blobs.
func Save(a *Artifact, path string) error {
	blob, err := Encode(a)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(chaos.OS, path, blob); err != nil {
		return fmt.Errorf("twin: save calibration %s: %w", path, err)
	}
	return nil
}

// Load reads, verifies and decodes a calibration artifact from disk.
func Load(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("twin: load calibration: %w", err)
	}
	a, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("twin: load calibration %s: %w", path, err)
	}
	return a, nil
}

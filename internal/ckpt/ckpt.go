// Package ckpt implements crash-safe checkpoint files and the per-cell
// progress journal behind resumable runs.
//
// A checkpoint is the complete machine state at an epoch-safe boundary
// (between engine steps) in an internal/durable envelope with magic
// "OLCKPT"; the payload is the gob encoding of Checkpoint. Writes are
// atomic (durable.WriteFile), so a crash mid-write leaves either the
// previous checkpoint or none — never a torn file. Loads verify
// structure and checksum before decoding and classify every failure
// mode as a distinct olerrors sentinel; a damaged file is always a
// loud, typed error, never a silent bad resume.
//
// Resuming from a checkpoint is deterministic: a run checkpointed at
// cycle C and continued produces byte-identical results (final memory
// image, statistics, non-clock trace events) to one that was never
// interrupted, on both the dense and skip-ahead engines.
package ckpt

import (
	"fmt"
	"os"

	"orderlight/internal/chaos"
	"orderlight/internal/durable"
	"orderlight/internal/gpu"
	"orderlight/internal/olerrors"
)

// Version is the current checkpoint format version. Decode rejects any
// other version with olerrors.ErrCheckpointVersion.
const Version = 1

// format is the checkpoint envelope: magic "OLCKPT", failures
// classified by the olerrors checkpoint sentinels.
var format = durable.Format{
	Magic:        "OLCKPT",
	Version:      Version,
	ErrTruncated: olerrors.ErrCheckpointTruncated,
	ErrFormat:    olerrors.ErrCheckpointFormat,
	ErrVersion:   olerrors.ErrCheckpointVersion,
	ErrChecksum:  olerrors.ErrCheckpointChecksum,
}

// Meta identifies the run a checkpoint belongs to. Load-time identity
// checks (cell hash, config hash, engine) are the resume safety net: a
// checkpoint restored into a differently-configured run would decode
// cleanly and then diverge silently, so the runner refuses mismatches
// with olerrors.ErrCheckpointMismatch. The remaining fields are
// provenance for humans reading a stray .ckpt file.
type Meta struct {
	CellHash   string // runner cell identity (see runner cell hashing)
	Cell       string // human-readable cell key
	Kernel     string // kernel spec name
	ConfigHash string // obs.ConfigHash of the cell's config
	Engine     string // obs.EngineName: "dense" or "skip"
	Seed       uint64
	Bytes      int64  // per-channel footprint
	Fault      string // fault spec (String form), "none" when unfaulted
	Host       bool   // host-baseline cell
	Traffic    bool   // synthetic host traffic armed
	CoreCycle  int64  // core cycle the state was captured at
	SimTime    int64  // engine time in base ticks
}

// Checkpoint is a checkpoint file's payload.
type Checkpoint struct {
	Meta    Meta
	Machine *gpu.MachineState
}

// Encode renders a checkpoint into its durable envelope.
func Encode(c *Checkpoint) ([]byte, error) { return format.Encode(c) }

// Decode parses and verifies a checkpoint envelope. Every failure wraps
// exactly one of olerrors.ErrCheckpointTruncated, Format, Version or
// Checksum (see durable.Format).
func Decode(data []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := format.Decode(data, c); err != nil {
		return nil, err
	}
	return c, nil
}

// Save writes a checkpoint atomically through fsys (nil means the real
// filesystem; the chaos harness injects its sick disk here). A crash at
// any point leaves either the previous file or no file.
func Save(fsys chaos.FS, path string, c *Checkpoint) error {
	data, err := Encode(c)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(fsys, path, data); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	return nil
}

// Load reads and decodes a checkpoint file. The error distinguishes a
// missing file (os.IsNotExist / errors.Is(err, fs.ErrNotExist)) from a
// damaged one (the Decode sentinels).
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", path, err)
	}
	return c, nil
}

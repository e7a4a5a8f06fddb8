package runner

import (
	"testing"

	"orderlight/internal/fault"
)

// TestCellCacheKeyGolden pins the result-cache key bytes of one skip
// cell and one dense cell. A change here orphans every warm cache on
// disk, so it must be deliberate: bump cellResultVersion instead of
// editing these strings. A twin engine escalates to skip-ahead, so it
// must key its escalated cells exactly like a skip engine.
func TestCellCacheKeyGolden(t *testing.T) {
	const (
		skipKey  = `cell|v1|26f5ed121599ed2d|kernel.Spec{Name:"add", Desc:"c[i] = a[i] + b[i]", ComputeRatio:"1:3", DataStructs:3, MultiDS:true, Phases:[]kernel.PhaseSpec{kernel.PhaseSpec{Name:"load a", Kind:0x1, Op:0x0, Vec:0, Imm:0, CmdsPerN:1, FixedCmds:0, RandomRows:false}, kernel.PhaseSpec{Name:"add b", Kind:0x2, Op:0x1, Vec:1, Imm:0, CmdsPerN:1, FixedCmds:0, RandomRows:false}, kernel.PhaseSpec{Name:"store c", Kind:0x3, Op:0x0, Vec:2, Imm:0, CmdsPerN:1, FixedCmds:0, RandomRows:false}}, ExtraOrderEvery:0, SpreadTiles:false}|8192|false|gpu.HostTraffic{PerChannel:0, EveryN:0, Group:0, Rows:0, CoarseArbitration:false}|skip`
		denseKey = `cell|v1|5410f0d6edf0186a|kernel.Spec{Name:"copy", Desc:"b[i] = a[i]", ComputeRatio:"0:2", DataStructs:2, MultiDS:true, Phases:[]kernel.PhaseSpec{kernel.PhaseSpec{Name:"load a", Kind:0x1, Op:0x0, Vec:0, Imm:0, CmdsPerN:1, FixedCmds:0, RandomRows:false}, kernel.PhaseSpec{Name:"store b", Kind:0x3, Op:0x0, Vec:1, Imm:0, CmdsPerN:1, FixedCmds:0, RandomRows:false}}, ExtraOrderEvery:0, SpreadTiles:false}|8192|false|gpu.HostTraffic{PerChannel:0, EveryN:0, Group:0, Rows:0, CoarseArbitration:false}|dense`
	)
	skip := oneCell(t)[0]
	dense := testCells(t)[0]
	for _, tc := range []struct {
		name string
		eng  EngineKind
		cell *Cell
		want string
	}{
		{"skip", EngineSkip, &skip, skipKey},
		{"dense", EngineDense, &dense, denseKey},
		{"twin escalation", EngineTwin, &skip, skipKey},
	} {
		if got := New(Options{Engine: tc.eng}).cellCacheKey(tc.cell); got != tc.want {
			t.Errorf("%s cell key drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestCellHashGolden pins cellHash for one plain and one faulted cell.
// The hash names checkpoint files and keys progress-journal entries, so
// a change here strands every checkpoint directory on disk (see
// internal/ckpt/testdata/journal.jsonl, keyed by these hashes).
func TestCellHashGolden(t *testing.T) {
	plain := testCells(t)[0]
	faulted := plain
	faulted.Key = "copy/fault"
	faulted.Fault = fault.Spec{Class: fault.ClassDropOrdering, Seed: 7, Rate: 0.5}
	for _, tc := range []struct {
		name string
		cell *Cell
		want string
	}{
		{"plain", &plain, "9945b00fa52ac3fd"},
		{"faulted", &faulted, "3597a834c2a4111b"},
	} {
		if got := cellHash(tc.cell); got != tc.want {
			t.Errorf("%s cell hash drifted: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

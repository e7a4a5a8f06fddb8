package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/kernel"
	"orderlight/internal/runner"
)

// TestRunAllParityDenseVsSkip is the acceptance gate for the
// quiescence skip-ahead engine: every experiment table of the full
// sweep must render byte-identically on the naive dense engine and the
// skip-ahead one.
func TestRunAllParityDenseVsSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep x2")
	}
	cfg := tinyConfig()
	sc := Scale{BytesPerChannel: 8 * 1024}
	ctx := context.Background()

	skip, err := RunAllEngine(ctx, runner.New(runner.Options{}), cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := RunAllEngine(ctx, runner.New(runner.Options{Engine: runner.EngineDense}), cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(skip) != len(dense) {
		t.Fatalf("skip engine produced %d tables, dense %d", len(skip), len(dense))
	}
	for i, s := range skip {
		if sMD, dMD := s.Markdown(), dense[i].Markdown(); sMD != dMD {
			t.Errorf("table %s differs between engines:\n--- skip ---\n%s\n--- dense ---\n%s", s.ID, sMD, dMD)
		}
	}
}

// randomParityCells samples the configuration space: random kernels,
// ordering primitives, TS sizes, refresh, NoC routes, host front ends,
// and concurrent host traffic. With faults set, a quarter of the cells
// also carry an active fault plan (which draws extra random numbers, so
// the two samplings differ cell for cell even under one seed).
func randomParityCells(t *testing.T, seed int64, n int, prefix string, faults bool) []runner.Cell {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := kernel.Names()
	prims := []config.Primitive{
		config.PrimitiveNone, config.PrimitiveFence,
		config.PrimitiveOrderLight, config.PrimitiveSeqno,
	}
	classes := []fault.Class{
		fault.ClassDropOrdering, fault.ClassWeakenDrain,
		fault.ClassIllegalReorder, fault.ClassDelayVisibility,
	}
	cells := make([]runner.Cell, 0, n)
	for i := 0; i < n; i++ {
		cfg := tinyConfig()
		name := names[rng.Intn(len(names))]
		cfg.Run.Primitive = prims[rng.Intn(len(prims))]
		cfg = cfg.WithTSFraction(TSFractions[rng.Intn(len(TSFractions))])
		cfg.Memory.RefreshEnabled = rng.Intn(2) == 0
		cfg.GPU.IcntRoutes = 1 + rng.Intn(2)
		if rng.Intn(4) == 0 {
			cfg.Host.Kind = config.HostCPU
		}
		spec, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runner.Cell{
			Key:   fmt.Sprintf("%s%02d/%s/%v/ts=%dB", prefix, i, name, cfg.Run.Primitive, cfg.PIM.TSBytes),
			Cfg:   cfg,
			Spec:  spec,
			Bytes: int64(1+rng.Intn(8)) * 1024,
		}
		if cfg.Host.Kind == config.HostGPU && rng.Intn(3) == 0 {
			c.Traffic = gpu.HostTraffic{
				PerChannel:        4 + rng.Intn(12),
				EveryN:            50 + rng.Intn(200),
				Group:             rng.Intn(4),
				Rows:              1 + rng.Intn(4),
				CoarseArbitration: rng.Intn(2) == 0,
			}
		}
		if faults && rng.Intn(4) == 0 {
			c.Fault = fault.Spec{
				Class: classes[rng.Intn(len(classes))],
				Seed:  rng.Uint64(),
				Rate:  0.25 + rng.Float64()*0.75,
			}
		}
		cells = append(cells, c)
	}
	return cells
}

// TestRandomizedDenseSkipParity fuzzes the engine-parity claim across
// the configuration space (see randomParityCells). For every sampled
// cell the skip-ahead and dense engines must agree on every statistic,
// the final cycle count, the host-latency measurements, and the
// complete post-run memory image.
func TestRandomizedDenseSkipParity(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep x2")
	}
	cells := randomParityCells(t, 0x0c0ffee, 24, "rand", false)

	// The kernel cache is disabled so each engine mutates its own store
	// build; otherwise both runs would see pre-cloned images anyway, but
	// this keeps the memory-image comparison airtight.
	assertEngineParity(t, cells, []parityEngine{
		{"dense", runner.Options{Engine: runner.EngineDense, DisableKernelCache: true}},
	})
}

// TestRandomizedThreeWayParity fuzzes engine parity three ways at once
// on a sample where a quarter of the cells also carry active fault
// plans: the skip-ahead engine, the dense engine, and the skip-ahead
// engine again with the built-kernel cache enabled and a single worker
// must agree on every statistic (cycle counts included), the
// host-latency measurements, the fault verdict, and the complete
// post-run memory image. The third run shows that neither kernel-image
// reuse nor worker scheduling leaks into a result.
func TestRandomizedThreeWayParity(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep x3")
	}
	cells := randomParityCells(t, 0x3e147a11e1, 24, "flt", true)
	assertEngineParity(t, cells, []parityEngine{
		{"dense", runner.Options{Engine: runner.EngineDense, DisableKernelCache: true}},
		{"skip-cached-serial", runner.Options{Parallelism: 1}},
	})
}

// parityEngine names one engine configuration compared against the
// kernel-cache-free skip-ahead reference.
type parityEngine struct {
	name string
	opts runner.Options
}

// assertEngineParity runs cells on the skip-ahead reference and on each
// of engines, and fails on any divergence in statistics, host-load
// measurements, fault verdicts or final memory images.
func assertEngineParity(t *testing.T, cells []runner.Cell, engines []parityEngine) {
	t.Helper()
	ctx := context.Background()
	skipRes, err := runner.New(runner.Options{DisableKernelCache: true}).Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		res, err := runner.New(e.opts).Run(ctx, cells)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for i := range cells {
			s, o := skipRes[i], res[i]
			if !reflect.DeepEqual(s.Run, o.Run) {
				t.Errorf("%s: stats diverge skip vs %s:\nskip: %+v\n%s: %+v",
					cells[i].Key, e.name, s.Run, e.name, o.Run)
				continue
			}
			if s.HostLatency != o.HostLatency || s.HostServed != o.HostServed {
				t.Errorf("%s: host-load measurements diverge: skip (%.3f, %d) vs %s (%.3f, %d)",
					cells[i].Key, s.HostLatency, s.HostServed, e.name, o.HostLatency, o.HostServed)
			}
			if (s.Fault == nil) != (o.Fault == nil) {
				t.Errorf("%s: fault verdict presence diverges skip vs %s", cells[i].Key, e.name)
			} else if s.Fault != nil && *s.Fault != *o.Fault {
				t.Errorf("%s: fault verdicts diverge: skip %+v vs %s %+v",
					cells[i].Key, *s.Fault, e.name, *o.Fault)
			}
			if !s.Kernel.Store.Equal(o.Kernel.Store) {
				t.Errorf("%s: final memory images differ at %v", cells[i].Key,
					s.Kernel.Store.Diff(o.Kernel.Store, 4))
			}
		}
	}
}

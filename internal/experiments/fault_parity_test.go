package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/kernel"
	"orderlight/internal/runner"
)

// TestFaultedDenseSkipParity extends the engine-parity property to
// fault-injected runs: for random (kernel, primitive, fault class,
// rate, seed) samples, the dense and skip-ahead engines must agree on
// every statistic, the final memory image, AND the differential
// oracle's verdict — same outcome, same injection counts, same wrong
// slots. Fault decisions are stateless hashes precisely so that this
// holds; a divergence means an injection hook consulted
// schedule-dependent state.
func TestFaultedDenseSkipParity(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized faulted simulation sweep x2")
	}
	rng := rand.New(rand.NewSource(0xfa17))
	names := []string{"add", "daxpy", "triad", "copy", "scale"}
	prims := []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight}
	classes := fault.Classes()
	rates := []float64{0.25, 0.5, 1}

	cells := make([]runner.Cell, 0, 20)
	for i := 0; i < 20; i++ {
		cfg := tinyConfig()
		cfg.Run.Primitive = prims[rng.Intn(len(prims))]
		cfg = cfg.WithTSFraction(TSFractions[rng.Intn(len(TSFractions))])
		name := names[rng.Intn(len(names))]
		spec, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fs := fault.Spec{
			Class: classes[rng.Intn(len(classes))],
			Seed:  rng.Uint64(),
			Rate:  rates[rng.Intn(len(rates))],
		}
		if fs.Class == fault.ClassDelayVisibility && rng.Intn(2) == 0 {
			fs.Delay = int64(1 + rng.Intn(200))
		}
		cells = append(cells, runner.Cell{
			Key:   fmt.Sprintf("fparity%02d/%s/%v/%s", i, name, cfg.Run.Primitive, fs),
			Cfg:   cfg,
			Spec:  spec,
			Bytes: int64(1+rng.Intn(8)) * 1024,
			Fault: fs,
		})
	}

	ctx := context.Background()
	skipRes, err := runner.New(runner.Options{DisableKernelCache: true}).Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	denseRes, err := runner.New(runner.Options{Engine: runner.EngineDense, DisableKernelCache: true}).Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		s, d := skipRes[i], denseRes[i]
		if !reflect.DeepEqual(s.Run, d.Run) {
			t.Errorf("%s: stats diverge between engines:\nskip:  %+v\ndense: %+v", cells[i].Key, s.Run, d.Run)
			continue
		}
		if !s.Kernel.Store.Equal(d.Kernel.Store) {
			t.Errorf("%s: final memory images differ at %v", cells[i].Key,
				s.Kernel.Store.Diff(d.Kernel.Store, 4))
		}
		if s.Fault == nil || d.Fault == nil {
			t.Errorf("%s: missing verdict (skip %v, dense %v)", cells[i].Key, s.Fault, d.Fault)
			continue
		}
		if !reflect.DeepEqual(*s.Fault, *d.Fault) {
			t.Errorf("%s: verdicts diverge between engines:\nskip:  %v\ndense: %v",
				cells[i].Key, *s.Fault, *d.Fault)
		}
		if s.Fault.Outcome == fault.OutcomeEscape {
			t.Errorf("%s: escape: %v", cells[i].Key, *s.Fault)
		}
	}
}

// TestFaultCampaignZeroEscapes is the acceptance gate for the
// injection campaign itself: the default grid must classify every cell
// as detected or benign (never escape), and the pinned Figure 5
// reproduction — drop/fence on add at full rate — must come back
// detected.
func TestFaultCampaignZeroEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault campaign")
	}
	cfg := tinyConfig()
	tab, sum, err := FaultCampaign(cfg, Scale{BytesPerChannel: 32 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Escapes != 0 {
		t.Fatalf("campaign saw %d escape(s): %v\n%s", sum.Escapes, sum.EscapeKeys, tab.Markdown())
	}
	if !sum.PinnedDetected {
		t.Fatalf("pinned Figure 5 reproduction not detected:\n%s", tab.Markdown())
	}
	if sum.Detected == 0 {
		t.Fatal("campaign detected nothing")
	}
	if got := sum.Detected + sum.Benign + sum.Clean; got != len(tab.Rows) {
		t.Fatalf("summary covers %d cells, table has %d rows", got, len(tab.Rows))
	}
}

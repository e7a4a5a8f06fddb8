package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/runner"
	"orderlight/internal/stats"
)

func obsCell(t *testing.T, name string, prim config.Primitive) runner.Cell {
	t.Helper()
	cfg := tinyConfig()
	cfg.Run.Primitive = prim
	spec, err := kernel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return runner.Cell{
		Key:   fmt.Sprintf("%s/%v", name, prim),
		Cfg:   cfg,
		Spec:  spec,
		Bytes: 4 * 1024,
	}
}

func runWithObs(t *testing.T, c runner.Cell, dense bool) (*obs.CollectSink, *stats.Sampler) {
	t.Helper()
	sink := &obs.CollectSink{}
	smp := stats.NewSampler(256)
	opts := runner.Options{TraceSink: sink, Sampler: smp, DisableKernelCache: true}
	if dense {
		opts.Engine = runner.EngineDense
	}
	if _, err := runner.New(opts).Run(context.Background(), []runner.Cell{c}); err != nil {
		t.Fatal(err)
	}
	return sink, smp
}

// nonClock filters the stream down to machine events: skip-ahead credit
// spans live only on clock tracks and are the one legitimate difference
// between engines, so parity is asserted on everything else.
func nonClock(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(evs))
	for _, e := range evs {
		if !e.Track.IsClock() {
			out = append(out, e)
		}
	}
	return out
}

// TestEventStreamParityDenseVsSkip is the observability acceptance
// gate: for every ordering primitive, the dense and skip-ahead engines
// must emit identical machine-event streams — same events, same order,
// same timestamps and stall-span durations. Only the clock-track skip
// credits (which exist to make elision visible) may differ.
func TestEventStreamParityDenseVsSkip(t *testing.T) {
	prims := []config.Primitive{
		config.PrimitiveNone, config.PrimitiveFence,
		config.PrimitiveOrderLight, config.PrimitiveSeqno,
	}
	for _, prim := range prims {
		t.Run(prim.String(), func(t *testing.T) {
			cell := obsCell(t, "add", prim)
			skipSink, _ := runWithObs(t, cell, false)
			denseSink, _ := runWithObs(t, cell, true)

			s, d := nonClock(skipSink.Events()), nonClock(denseSink.Events())
			if len(s) == 0 {
				t.Fatal("skip engine emitted no machine events")
			}
			if !reflect.DeepEqual(s, d) {
				n := len(s)
				if len(d) < n {
					n = len(d)
				}
				for i := 0; i < n; i++ {
					if !reflect.DeepEqual(s[i], d[i]) {
						t.Fatalf("streams diverge at event %d (of %d/%d):\nskip:  %+v\ndense: %+v",
							i, len(s), len(d), s[i], d[i])
					}
				}
				t.Fatalf("streams are a prefix of each other: skip %d events, dense %d", len(s), len(d))
			}

			// The dense engine must emit no skip credits at all.
			for _, e := range denseSink.Events() {
				if e.Track.IsClock() {
					t.Fatalf("dense engine emitted a clock-track event: %+v", e)
				}
			}
		})
	}
}

// TestEventStreamHasExpectedShapes spot-checks the taxonomy: a fence
// run carries fence instants with preceding stall spans, an OrderLight
// run carries orderlight instants, and both carry stage crossings and
// DRAM commands.
func TestEventStreamHasExpectedShapes(t *testing.T) {
	count := func(evs []obs.Event, name string) (n int) {
		for _, e := range evs {
			if e.Name == name {
				n++
			}
		}
		return n
	}

	fenceSink, _ := runWithObs(t, obsCell(t, "add", config.PrimitiveFence), false)
	fe := fenceSink.Events()
	if count(fe, "fence") == 0 || count(fe, "fence-stall") == 0 {
		t.Errorf("fence run: %d fence instants, %d stall spans — want both > 0",
			count(fe, "fence"), count(fe, "fence-stall"))
	}
	for _, e := range fe {
		if e.Name == "fence-stall" && e.Dur <= 0 {
			t.Errorf("stall span without duration: %+v", e)
		}
	}

	olSink, _ := runWithObs(t, obsCell(t, "add", config.PrimitiveOrderLight), false)
	oe := olSink.Events()
	if count(oe, "orderlight") == 0 {
		t.Error("orderlight run emitted no orderlight instants")
	}
	if count(oe, "inject") == 0 || count(oe, "device") == 0 {
		t.Errorf("stage crossings missing: %d inject, %d device", count(oe, "inject"), count(oe, "device"))
	}
	if count(oe, "RD")+count(oe, "WR") == 0 || count(oe, "ACT") == 0 {
		t.Errorf("DRAM commands missing: %d RD, %d WR, %d ACT", count(oe, "RD"), count(oe, "WR"), count(oe, "ACT"))
	}
	pim := 0
	for _, e := range oe {
		if e.Track.Kind == "pim" {
			pim++
		}
	}
	if pim == 0 {
		t.Error("no PIM-unit track events")
	}
	skips := 0
	for _, e := range oe {
		if e.Track.IsClock() && e.Name == "skip" {
			skips++
		}
	}
	if skips == 0 {
		t.Error("skip-ahead run emitted no skip-credit spans (elision should be visible)")
	}
}

// TestSamplerParityDenseVsSkip checks sampling cadence is unaffected by
// quiescence skip-ahead: both engines must produce the identical
// time-series — same sample cycles, same counter values.
func TestSamplerParityDenseVsSkip(t *testing.T) {
	for _, prim := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight} {
		t.Run(prim.String(), func(t *testing.T) {
			cell := obsCell(t, "add", prim)
			_, skipSmp := runWithObs(t, cell, false)
			_, denseSmp := runWithObs(t, cell, true)

			s, d := skipSmp.Samples(), denseSmp.Samples()
			if len(s) < 2 {
				t.Fatalf("skip run recorded only %d samples — cadence 256 should yield more", len(s))
			}
			if !reflect.DeepEqual(s, d) {
				t.Fatalf("time-series diverge:\nskip:  %+v\ndense: %+v", s, d)
			}
			// Every non-final sample must land exactly on the cadence grid:
			// skip-ahead is not allowed to elide a sample cycle.
			for i, x := range s[:len(s)-1] {
				if x.Cycle%skipSmp.Every() != 0 {
					t.Errorf("sample %d at cycle %d is off the %d-cycle grid", i, x.Cycle, skipSmp.Every())
				}
			}
		})
	}
}

// TestPerfettoEndToEnd streams a real run through the Perfetto exporter
// and checks the document loads as valid trace-event JSON.
func TestPerfettoEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewPerfettoSink(&buf)
	eng := runner.New(runner.Options{TraceSink: sink, DisableKernelCache: true})
	cell := obsCell(t, "add", config.PrimitiveOrderLight)
	if _, err := eng.Run(context.Background(), []runner.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace of a real run is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) < 10 {
		t.Fatalf("implausible document: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M", "X", "i":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
	}
}

// TestTraceSinkSingleCellOnly checks the runner rejects observability
// attachments on multi-cell sweeps instead of interleaving streams.
func TestTraceSinkSingleCellOnly(t *testing.T) {
	cells := []runner.Cell{
		obsCell(t, "add", config.PrimitiveFence),
		obsCell(t, "add", config.PrimitiveOrderLight),
	}
	eng := runner.New(runner.Options{TraceSink: &obs.CollectSink{}})
	if _, err := eng.Run(context.Background(), cells); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Errorf("multi-cell run with a trace sink: err = %v, want ErrInvalidSpec", err)
	}
	eng = runner.New(runner.Options{Sampler: stats.NewSampler(100)})
	if _, err := eng.Run(context.Background(), cells); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Errorf("multi-cell run with a sampler: err = %v, want ErrInvalidSpec", err)
	}
}

// TestManifestsOnTables checks every simulated cell of an experiment
// carries a manifest whose config hash round-trips against the cell's
// own configuration.
func TestManifestsOnTables(t *testing.T) {
	cfg := tinyConfig()
	sc := Scale{BytesPerChannel: 4 * 1024}
	eng := runner.New(runner.Options{Manifest: true})
	table, err := RunEngine(context.Background(), eng, "fig5", cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Cells("fig5", cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Manifests) != len(cells) {
		t.Fatalf("%d manifests for %d cells", len(table.Manifests), len(cells))
	}
	for i, m := range table.Manifests {
		if m.Cell != cells[i].Key {
			t.Errorf("manifest %d names cell %q, want %q", i, m.Cell, cells[i].Key)
		}
		if want := obs.ConfigHash(cells[i].Cfg); m.ConfigHash != want {
			t.Errorf("%s: config hash %s does not round-trip (want %s)", m.Cell, m.ConfigHash, want)
		}
		if m.Engine != "skip" || m.GoVersion == "" || m.WallMS < 0 {
			t.Errorf("%s: implausible manifest %+v", m.Cell, m)
		}
	}
	if table.ManifestMarkdown() == "" {
		t.Error("ManifestMarkdown() empty despite attached manifests")
	}
}

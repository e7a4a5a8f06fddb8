package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/runner"
)

// figure is a closed-loop workload: regenerate one paper figure at olbench's
// default scale, one regeneration at a time, on the runner's default pool.
type figure struct {
	exp   string        // experiment ID, and its section heading in results_all.md
	limit time.Duration // latency limit on one regeneration (slo_ok_ratio)
}

var (
	// fig5: five add cells, mostly fence stalls — warps idle, so the
	// quiescence skip-ahead does most of the work and verification little.
	fig5 = figure{exp: "fig5", limit: 5 * time.Second}
	// fig12: 56 application cells — command-dense, so per-command work in
	// memctrl/pim/dram and Machine.Verify dominate.
	fig12 = figure{exp: "fig12", limit: 60 * time.Second}
)

// setupBatch is how many times a figure run sets up before each
// regeneration; setup_s is the median over all batches. One set-up takes
// tens of microseconds. Batches spread over the run sample the host's speed
// across the run, as regen_s does, rather than at one instant.
const setupBatch = 101

// figEnv is a figure workload's set-up: olbench's default configuration and
// the table the regeneration must reproduce.
type figEnv struct {
	exp  string
	cfg  config.Config
	want string
}

// loadOracle reads the figure's expected table from results_all.md. It is
// the benchmark's own work, so it is not part of the timed set-up.
func loadOracle(root, exp string) (string, error) {
	doc, err := os.ReadFile(filepath.Join(root, "results_all.md"))
	if err != nil {
		return "", err
	}
	return tableSection(string(doc), exp)
}

// setupFigure is the program's set-up for one regeneration: olbench's
// default configuration and the validated cell grid.
func setupFigure(exp string) (*figEnv, error) {
	cfg := config.Default()
	if _, err := experiments.Cells(exp, cfg, experiments.Scale{}); err != nil {
		return nil, err
	}
	return &figEnv{exp: exp, cfg: cfg}, nil
}

// tableSection extracts an experiment's rendered table from results_all.md:
// from its "### <id> — " heading up to its run-manifest block or the next
// heading, which is exactly what Table.Markdown renders.
func tableSection(doc, exp string) (string, error) {
	head := "\n### " + exp + " — "
	i := strings.Index("\n"+doc, head)
	if i < 0 {
		return "", fmt.Errorf("results_all.md has no %q section", exp)
	}
	rest := doc[i:]
	end := len(rest)
	for _, stop := range []string{"\n<details>", "\n### ", "\n## "} {
		if j := strings.Index(rest[1:], stop); j >= 0 && j+1 < end {
			end = j + 1
		}
	}
	return strings.TrimSpace(rest[:end]), nil
}

// regen is one regeneration's output.
type regen struct {
	table     string
	cells     []runner.Cell
	res       []runner.Result
	wall      time.Duration
	hits      int64 // kernel-cache hits
	misses    int64
	simulated int64
	runSpan   int // recorder index of the Engine.Run span (-1 untraced)
}

// regenerate is olbench's path for one experiment — experiments.Cells, a
// fresh runner engine's Run, experiments.Assemble — with manifests on, so
// every cell reports its host wall time.
func regenerate(ctx context.Context, env *figEnv, rec *recorder, parent int) (*regen, error) {
	start := time.Now()
	eng := runner.New(runner.Options{Manifest: true})
	r := &regen{}
	if _, err := rec.do("experiments.cells", env.exp, parent, func() (err error) {
		r.cells, err = experiments.Cells(env.exp, env.cfg, experiments.Scale{})
		return err
	}); err != nil {
		return nil, err
	}
	var err error
	if r.runSpan, err = rec.do("runner.run", env.exp, parent, func() (err error) {
		r.res, err = eng.Run(ctx, r.cells)
		return err
	}); err != nil {
		return nil, err
	}
	var t *experiments.Table
	if _, err := rec.do("experiments.assemble", env.exp, parent, func() (err error) {
		t, err = experiments.Assemble(env.exp, env.cfg, experiments.Scale{}, r.res)
		return err
	}); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	r.table = strings.TrimSpace(t.Markdown())
	r.hits, r.misses = eng.CacheStats()
	r.simulated = eng.Simulated()
	return r, nil
}

func runFigure(ctx context.Context, o options, f figure) (*outcome, error) {
	want, err := loadOracle(o.root, f.exp)
	if err != nil {
		return nil, err
	}
	setup := func() (*figEnv, error) { return setupFigure(f.exp) }
	env, err := setup()
	if err != nil {
		return nil, err
	}
	env.want = want
	if o.trace {
		return traceFigure(ctx, o, env)
	}

	out := &outcome{}
	var walls []float64
	byCell := map[string][]float64{} // each cell's host wall times, one per regeneration
	var setups []float64
	var cmds, cells, sloOK int
	var alloc uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.seconds; i++ {
		// Regeneration 0 warms the heap: the first in a process pays for
		// growing it. It is checked like the others but not timed.
		timed := i > 0
		if i == 1 {
			start = time.Now()
		}
		// Each regeneration, and the set-ups before it, start from a
		// collected heap. Otherwise the collection of the previous
		// regeneration's garbage lands at a different point of each one.
		runtime.GC()
		if timed {
			_, times, err := timeSetup(setupBatch, setup, func(*figEnv) {})
			if err != nil {
				return nil, err
			}
			setups = append(setups, times...)
		}
		out.attempted++
		runtime.ReadMemStats(&ms0)
		r, err := regenerate(ctx, env, nil, -1)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s regeneration %d: %v\n", f.exp, out.attempted, err)
			continue
		}
		if timed {
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
			walls = append(walls, r.wall.Seconds())
			for _, x := range r.res {
				byCell[x.Manifest.Cell] = append(byCell[x.Manifest.Cell], x.Manifest.WallMS)
				cmds += int(x.Run.PIMCommands + x.Run.HostCommands)
			}
			cells += len(r.res)
		}
		switch {
		case r.table != env.want:
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s regeneration %d differs from results_all.md:\n%s\n", f.exp, out.attempted, r.table)
		case r.wall <= f.limit:
			sloOK++
		}
	}
	if len(walls) == 0 {
		return nil, errors.New("no regeneration completed")
	}
	n := float64(len(walls))
	regenS := median(walls)
	// A job is a cell. Its latency is the median of its wall times over the
	// run's regenerations: five similar fig5 cells pooled raw would put p90
	// in the tail of the host's noise rather than on a cell.
	var cellMS []float64
	for _, times := range byCell {
		cellMS = append(cellMS, median(times))
	}
	fmt.Fprintf(os.Stderr, "%s: %d timed regenerations after 1 untimed (median %.3f s, min %.3f s, max %.3f s), %d cells\n",
		f.exp, len(walls), regenS, quantile(walls, 0), quantile(walls, 1), len(cellMS))
	out.metrics = map[string]float64{
		"setup_s":        median(setups),
		"regen_s":        regenS,
		"sim_cmds_per_s": float64(cmds) / n / regenS,
		"alloc_mb":       float64(alloc) / n / 1e6,
		"peak_rss_mb":    peakRSSMB(),
		"job_p50_ms":     quantile(cellMS, 0.5),
		"job_p90_ms":     quantile(cellMS, 0.9),
		"jobs_per_s":     float64(cells) / n / regenS,
		"slo_ok_ratio":   float64(sloOK) / float64(out.attempted),
	}
	return out, nil
}

// traceFigure is the traced pass: one regeneration through the runner,
// timed as experiments/runner spans, then every cell driven by hand with
// each layer call timed (traceCell). The hand-driven results must reassemble
// into the same table and carry the same per-cell statistics.
func traceFigure(ctx context.Context, o options, env *figEnv) (*outcome, error) {
	// Two untraced regenerations first: one to warm the heap, as every
	// regeneration but the first in a closed loop runs on a warm heap, and
	// one as the reference the spanned regeneration's wall time is compared
	// with (trace.overhead_ratio).
	var plain *regen
	for i := 0; i < 2; i++ {
		var err error
		runtime.GC() // as before every regeneration of the end-to-end loop
		if plain, err = regenerate(ctx, env, nil, -1); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	out := &outcome{attempted: 1, metrics: notExercised("serve.", "rcache.", "twin.")}

	runtime.GC()
	root := rec.open("regen", env.exp, -1)
	r, err := regenerate(ctx, env, rec, root)
	rec.close(root)
	if err != nil {
		return nil, err
	}
	if r.table != env.want {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s differs from results_all.md:\n%s\n", env.exp, r.table)
	}

	pass := rec.open("traced.cells", env.exp, -1)
	t := &cellTotals{}
	built := map[string]bool{}
	res := make([]runner.Result, len(r.cells))
	for i := range r.cells {
		if res[i], err = traceCell(rec, pass, &r.cells[i], built, t); err != nil {
			return nil, err
		}
	}
	rec.close(pass)

	t2, err := experiments.Assemble(env.exp, env.cfg, experiments.Scale{}, res)
	if err != nil {
		return nil, err
	}
	if got := strings.TrimSpace(t2.Markdown()); got != r.table {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: hand-driven %s cells reassemble to a different table:\n%s\n", env.exp, got)
	}
	if i := sameRuns(res, r.res); i >= 0 {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: hand-driven cell %s has different statistics from the runner's\n", r.cells[i].Key)
	}

	for k, v := range cellLayerMetrics(rec, pass, t) {
		out.metrics[k] = v
	}
	pool := runtime.GOMAXPROCS(0) // the runner's default pool width
	runWall := rec.spans[r.runSpan].dur()
	newMachine, _ := rec.sum("gpu.new_machine", pass)
	var inRunner time.Duration // Machine.Run + Verify as the runner's manifests timed them
	for _, x := range r.res {
		inRunner += time.Duration(x.Manifest.WallMS * float64(time.Millisecond))
	}
	asm, _ := rec.sum("experiments.assemble", root)
	out.metrics["runner.self_ms"] = ms(runWall) - ms(t.missBuild+newMachine+inRunner)/float64(pool)
	out.metrics["runner.kcache_hit_ratio"] = ratio(float64(r.hits), float64(r.hits+r.misses))
	out.metrics["runner.cells_simulated"] = float64(r.simulated)
	out.metrics["experiments.assemble_ms"] = ms(asm)
	out.metrics["trace.overhead_ratio"] = r.wall.Seconds() / plain.wall.Seconds()

	whereTimeGoes(os.Stderr, env.exp, rec, root, pass, t, runWall, inRunner, pool)
	path := filepath.Join(o.workdir, o.workload+".trace.json")
	if err := rec.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(rec.spans), path)
	return out, nil
}

// whereTimeGoes prints each layer's self time in one regeneration as a share
// of its worker time: pool width × the Engine.Run wall, plus the serial
// experiments calls. Machine.Run + Verify is the time the runner's cell
// manifests recorded inside that Engine.Run (inRunner), split between the
// layers in the proportions the hand-driven calls measured; kernel.Build
// and gpu.NewMachine come from the hand-driven calls. The runner row is the
// rest of the pool's worker time: idle workers, scheduling, and whatever
// the runner does around each cell.
func whereTimeGoes(w io.Writer, exp string, rec *recorder, root, pass int, t *cellTotals, runWall, inRunner time.Duration, pool int) {
	get := func(name string, under int) time.Duration { d, _ := rec.sum(name, under); return d }
	newMachine, run, verify := get("gpu.new_machine", pass), get("gpu.run", pass), get("gpu.verify", pass)
	scaled := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * ratio(float64(inRunner), float64(run+verify)))
	}
	experimentsSelf := get("experiments.cells", root) + get("experiments.assemble", root)
	workerTime := time.Duration(pool) * runWall
	base := workerTime + experimentsSelf
	rows := []struct {
		layer, what string
		d           time.Duration
	}{
		{"kernel", "kernel.Build, kernel-cache misses only", t.missBuild},
		{"gpu", "gpu.NewMachine", newMachine},
		{"gpu+sim+memctrl+pim+dram", "Machine.Run, verification off", scaled(run)},
		{"gpu+pim+dram", "Machine.Verify", scaled(verify)},
		{"  dram", "  of which Store.Clone (initial image)", scaled(get("dram.clone", pass))},
		{"  gpu", "  of which ExpandProgram", scaled(get("gpu.expand", pass))},
		{"  pim", "  of which pim.Replay", scaled(get("pim.replay", pass))},
		{"  dram", "  of which Store.Equal", scaled(get("dram.equal", pass))},
		{"runner", "pool worker time not spent in the calls above", workerTime - t.missBuild - newMachine - inRunner},
		{"experiments", "experiments.Cells + experiments.Assemble", experimentsSelf},
	}
	fmt.Fprintf(w, "\nwhere %s's time goes (traced run; base = %d workers x Engine.Run wall %.1f ms + experiments %.1f ms = %.1f ms)\n",
		exp, pool, ms(runWall), ms(experimentsSelf), ms(base))
	fmt.Fprintf(w, "%-26s %-48s %11s %7s\n", "layer", "calls", "ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-48s %11.1f %6.1f%%\n", r.layer, r.what, ms(r.d), 100*r.d.Seconds()/base.Seconds())
	}
	fmt.Fprintf(w, "(Run and Verify: the runner's manifests recorded %.1f ms for both, split as the hand-driven calls measured them,\n"+
		" %.1f ms and %.1f ms. \"of which\" rows repeat Verify's steps as separate calls, scaled alike, and are not added again.\n"+
		" memctrl alone: channel 0 of each cell drained by a standalone controller, %d memory cycles in %.1f ms, not in the base.)\n\n",
		ms(inRunner), ms(run), ms(verify), t.memCycles, ms(get("memctrl.drain", pass)))
}

// notExercised returns zero for every per-layer metric under the given
// prefixes: layers the workload does not call.
func notExercised(prefixes ...string) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				m[d.name] = 0
			}
		}
	}
	return m
}

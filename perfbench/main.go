// Command perfbench is the repository benchmark: it times the simulator end
// to end on three workloads and checks every output it produces.
//
//	perfbench --workload fig5-fence --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it runs the workload closed- or open-loop for --seconds and
// prints the end-to-end metrics. With --trace 1 it runs the traced pass
// instead: it times calls into each layer's public functions from outside,
// prints the per-layer metrics, a "where the time goes" table on standard
// error, and writes the spans as Chrome-trace JSON. The last line of standard
// output is always one JSON object:
//
//	{"correct":true,"attempted":3,"failed":0,"metrics":{"regen_s":{"value":11.2,"unit":"s"},...}}
//
// Run it from the repository root: it reads results_all.md (the figure
// oracle) and calibration.olcal (the twin calibration) from there, and
// keeps its scratch files under --workdir. While a workload runs, one
// idle-priority spinner per CPU keeps the CPUs from going idle (busy.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// contract BENCHMARK.json declares; TestBenchmarkJSONMatchesProgram keeps the
// two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"regen_s", "s"},
	{"sim_cmds_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"slo_ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"gpu.run_ms", "ms"},
	{"gpu.sim_cycles", "count"},
	{"gpu.ns_per_sim_cycle", "ns"},
	{"gpu.cmds_per_s", "1/s"},
	{"gpu.run_alloc_mb", "MB"},
	{"gpu.verify_ms", "ms"},
	{"gpu.verify_alloc_mb", "MB"},
	{"gpu.expand_ms", "ms"},
	{"gpu.new_machine_ms", "ms"},
	{"pim.replay_ms", "ms"},
	{"pim.replay_cmds_per_s", "1/s"},
	{"dram.clone_ms", "ms"},
	{"dram.equal_ms", "ms"},
	{"dram.touched_slots", "count"},
	{"memctrl.drain_ns_per_cmd", "ns"},
	{"memctrl.mem_cycles", "count"},
	{"kernel.build_ms", "ms"},
	{"kernel.build_alloc_mb", "MB"},
	{"kernel.cmds", "count"},
	{"runner.self_ms", "ms"},
	{"runner.kcache_hit_ratio", "ratio"},
	{"runner.cells_simulated", "count"},
	{"experiments.assemble_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.lateness_p90_ms", "ms"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.get_us", "us"},
	{"rcache.put_us", "us"},
	{"twin.predict_us", "us"},
	{"twin.declines", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to its runner. Figure workloads ignore
// the seed: their inputs are the paper's fixed grids.
var workloads = map[string]func(ctx context.Context, o options) (*outcome, error){
	"fig5-fence": func(ctx context.Context, o options) (*outcome, error) { return runFigure(ctx, o, fig5) },
	"fig12-apps": func(ctx context.Context, o options) (*outcome, error) { return runFigure(ctx, o, fig12) },
	"serve-mix":  runServeMix,
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root: results_all.md, calibration.olcal
	workdir  string // scratch directory for result caches and trace files
}

// outcome is what one workload run produced: the operation counts and the
// metric values by name (units come from the metric lists).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinnerArg {
		if err := spin(); err != nil {
			fatal(err)
		}
		return
	}
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: fig5-fence, fig12-apps or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (drives the serve-mix request sequence)")
	flag.IntVar(&seconds, "seconds", 30, "how long one run measures, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	flag.StringVar(&o.root, "root", ".", "repository root holding results_all.md and calibration.olcal")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory (result caches, trace output)")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	spin, err := startSpinners()
	if err != nil {
		fatal(err)
	}
	out, err := run(context.Background(), o)
	spin.stop()
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]reported, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not produce metric %s", o.workload, d.name))
		}
		res.Metrics[d.name] = reported{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-26s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d (error ratio %.4f)\n",
		out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timeSetup runs setup reps times, tearing down every instance but the last,
// and returns that instance with every set-up time in seconds.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, times, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
		}
		last = v
	}
	return last, times, nil
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reports the process's peak resident set size in MB (1e6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports ru_maxrss in KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The repository root, as seen from this package's directory.
const repoRoot = ".."

// TestMain lets the test binary serve as its own idle spinner, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinnerArg {
		if err := spin(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestSpinnersRunIdleAndStop(t *testing.T) {
	s, err := startSpinners()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != runtime.NumCPU() {
		t.Errorf("%d spinners for %d CPUs", len(s), runtime.NumCPU())
	}
	for _, cmd := range s {
		policy, _, e := syscall.Syscall(syscall.SYS_SCHED_GETSCHEDULER, uintptr(cmd.Process.Pid), 0, 0)
		if e != 0 || policy != schedIdle {
			t.Errorf("spinner %d: policy %d (%v), want SCHED_IDLE", cmd.Process.Pid, policy, e)
		}
	}
	s.stop()
	for _, cmd := range s {
		if cmd.ProcessState == nil {
			t.Errorf("spinner %d still running after stop", cmd.Process.Pid)
		}
	}
}

func TestMixIsAFunctionOfTheSeed(t *testing.T) {
	a, err := genMix(7, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMix(7, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different request sequences")
	}
	c, err := genMix(8, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("seeds 7 and 8 produced the same request sequence")
	}
}

func TestMixShape(t *testing.T) {
	items, err := genMix(3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(30 * mixRate); len(items) != want {
		t.Fatalf("%d requests in 30 s, want %d at %v/s", len(items), want, mixRate)
	}
	seen := map[string]bool{}
	kinds := map[string]int{}
	for i, it := range items {
		kinds[it.Kind]++
		key, _ := json.Marshal(it.Req)
		switch it.Kind {
		case "unique":
			if seen[string(key)] {
				t.Fatalf("unique job %d repeats an earlier request", i)
			}
			seen[string(key)] = true
			if it.Req.Bytes < 4<<10 || it.Req.Bytes > 16<<10 {
				t.Fatalf("unique job %d has a %d B footprint", i, it.Req.Bytes)
			}
		case "repeat":
			first := items[it.Of]
			if first.Kind != "unique" || it.Due-first.Due < repeatAge || !reflect.DeepEqual(first.Req, it.Req) {
				t.Fatalf("repeat %d does not repeat a unique job due %v earlier", i, repeatAge)
			}
		case "twin":
			if it.Req.Opts.Engine != "twin" {
				t.Fatalf("twin query %d runs on engine %q", i, it.Req.Opts.Engine)
			}
		default:
			t.Fatalf("item %d has kind %q", i, it.Kind)
		}
	}
	for _, k := range []string{"unique", "repeat", "twin"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s requests in %v", k, kinds)
		}
	}
}

// A short serve-mix pass against the in-process daemon: every answer must
// pass the oracle, and every request must be accounted for.
func TestServeMixPassesItsOracle(t *testing.T) {
	out, err := runServeMix(context.Background(), options{workload: "serve-mix", seed: 5, seconds: 3 * time.Second, root: repoRoot, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if want := int(3 * mixRate); out.attempted != want || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d attempted, none failed", out.attempted, out.failed, want)
	}
}

// A regeneration whose table differs from results_all.md must count as a
// failed operation; the unmodified oracle must not.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot, "results_all.md"))
	if err != nil {
		t.Fatal(err)
	}
	const row = "| Fence 1/16 RB | 0.0944 |"
	if !strings.Contains(string(doc), row) {
		t.Fatalf("results_all.md has no %q row to corrupt", row)
	}
	for _, tc := range []struct {
		name    string
		doc     string
		wantBad bool
	}{
		{"intact", string(doc), false},
		{"corrupted", strings.Replace(string(doc), row, "| Fence 1/16 RB | 0.0945 |", 1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, "results_all.md"), []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := runFigure(context.Background(), options{workload: "fig5-fence", seconds: time.Second, root: root, workdir: root}, fig5)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || (out.failed > 0) != tc.wantBad {
				t.Fatalf("attempted %d, failed %d; want failures: %v", out.attempted, out.failed, tc.wantBad)
			}
		})
	}
}

// The traced pass must pass its own self-checks, and its fixed counts must
// repeat exactly from one run to the next.
func TestTracedCountsRepeat(t *testing.T) {
	fixed := []string{"kernel.cmds", "gpu.sim_cycles", "memctrl.mem_cycles", "runner.cells_simulated", "dram.touched_slots"}
	var first map[string]float64
	for run := 0; run < 2; run++ {
		out, err := runFigure(context.Background(), options{workload: "fig5-fence", seconds: time.Second, trace: true, root: repoRoot, workdir: t.TempDir()}, fig5)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("traced run %d failed %d self-checks", run, out.failed)
		}
		for _, d := range perLayer {
			if _, ok := out.metrics[d.name]; !ok {
				t.Fatalf("traced run does not report %s", d.name)
			}
		}
		if first == nil {
			first = out.metrics
			continue
		}
		for _, k := range fixed {
			if out.metrics[k] != first[k] || first[k] == 0 {
				t.Errorf("%s = %v, then %v", k, first[k], out.metrics[k])
			}
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program has %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

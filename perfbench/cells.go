package main

import (
	"fmt"
	"reflect"
	"time"

	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/kernel"
	"orderlight/internal/memctrl"
	"orderlight/internal/pim"
	"orderlight/internal/runner"
	"orderlight/internal/stats"
)

// cellTotals accumulates the counts the hand-driven cells report beside
// their spans.
type cellTotals struct {
	cells       int
	simCycles   int64 // core cycles simulated by Machine.Run
	cmds        int64 // PIM + host commands the machine issued
	kernelCmds  int64 // Kernel.TotalCmds over every built kernel
	replayed    int64 // requests pim.Replay executed
	touched     int64 // dram.Store.Touched over every final image
	memCycles   int64 // memory cycles the standalone controller drains took
	drainedCmds int64 // requests fed to those controllers
	missBuild   time.Duration
}

// traceCell drives one cell by hand the way runner's runCell does —
// kernel.Build, gpu.NewMachine (+SetHostTraffic), Machine.Run with
// verification off, then Machine.Verify — timing each call. It then repeats
// Verify's steps as separate calls (Store.Clone of the initial image,
// ExpandProgram, pim.Replay, Store.Equal) and drains channel 0's stream
// through a standalone memory controller, so those layers get their own
// times. built tracks kernel images already built in this pass: a build
// the runner's kernel cache would have served is not a miss.
func traceCell(rec *recorder, parent int, c *runner.Cell, built map[string]bool, t *cellTotals) (runner.Result, error) {
	if c.Host || c.Fault.Active() {
		return runner.Result{}, fmt.Errorf("cell %s: host-baseline and fault cells are not traced", c.Key)
	}
	cell := rec.open("cell", c.Key, parent)
	defer rec.close(cell)

	var k *kernel.Kernel
	i, err := rec.do("kernel.build", c.Key, cell, func() (err error) {
		k, err = kernel.Build(c.Cfg, c.Spec, c.Bytes)
		return err
	})
	if err != nil {
		return runner.Result{}, err
	}
	key := fmt.Sprintf("%#v|%#v|%d", c.Cfg, c.Spec, c.Bytes)
	if !built[key] {
		built[key] = true
		t.missBuild += rec.spans[i].dur()
	}
	t.kernelCmds += k.TotalCmds()

	var golden *dram.Store
	rec.do("dram.clone", c.Key, cell, func() error { golden = k.Store.Clone(); return nil })

	cfg := c.Cfg
	cfg.Run.Verify = false
	var m *gpu.Machine
	if _, err := rec.do("gpu.new_machine", c.Key, cell, func() (err error) {
		m, err = gpu.NewMachine(cfg, k.Store, k.Programs)
		return err
	}); err != nil {
		return runner.Result{}, err
	}
	if c.Traffic.PerChannel > 0 {
		m.SetHostTraffic(c.Traffic)
	}
	var st *stats.Run
	if _, err := rec.do("gpu.run", c.Key, cell, func() (err error) {
		st, err = m.Run()
		return err
	}); err != nil {
		return runner.Result{}, fmt.Errorf("cell %s: %w", c.Key, err)
	}
	if _, err := rec.do("gpu.verify", c.Key, cell, m.Verify); err != nil {
		return runner.Result{}, fmt.Errorf("cell %s: %w", c.Key, err)
	}
	t.cells++
	t.simCycles += st.ExecTime().CoreCycles()
	t.cmds += st.PIMCommands + st.HostCommands

	n := cfg.CommandsPerTile()
	reqs := make([][]isa.Request, len(k.Programs))
	rec.do("gpu.expand", c.Key, cell, func() error {
		for j, p := range k.Programs {
			reqs[j] = gpu.ExpandProgram(k.Geom, n, p)
		}
		return nil
	})
	if _, err := rec.do("pim.replay", c.Key, cell, func() error {
		for j, p := range k.Programs {
			if err := pim.Replay(golden, p.Channel, n*cfg.Memory.GroupsPerChannel, reqs[j]); err != nil {
				return err
			}
			t.replayed += int64(len(reqs[j]))
		}
		return nil
	}); err != nil {
		return runner.Result{}, fmt.Errorf("cell %s: replay: %w", c.Key, err)
	}
	var equal bool
	rec.do("dram.equal", c.Key, cell, func() error { equal = k.Store.Equal(golden); return nil })
	if equal != st.Correct {
		return runner.Result{}, fmt.Errorf("cell %s: Store.Equal says %v but Machine.Verify says correct=%v", c.Key, equal, st.Correct)
	}
	t.touched += int64(k.Store.Touched())

	if len(k.Programs) > 0 {
		p := k.Programs[0]
		var cycles, fed int64
		if _, err := rec.do("memctrl.drain", c.Key, cell, func() (err error) {
			cycles, fed, err = drainChannel(cfg, k.Geom, golden, p.Channel, reqs[0])
			return err
		}); err != nil {
			return runner.Result{}, fmt.Errorf("cell %s: %w", c.Key, err)
		}
		t.memCycles += cycles
		t.drainedCmds += fed
	}
	lat, served := m.HostLatency()
	return runner.Result{Run: st, Kernel: k, HostLatency: lat, HostServed: served}, nil
}

// drainChannel feeds one channel's program-order request stream straight
// into a fresh memory controller — no SM, interconnect or L2 in front — and
// ticks it until it is empty. Fences never reach a controller (the SM holds
// them), so they are dropped; OrderLight packets are numbered per memory
// group in stream order, as the controller's own tests number them. It
// returns the memory cycles taken and the requests fed.
func drainChannel(cfg config.Config, geom dram.Geometry, store *dram.Store, channel int, reqs []isa.Request) (int64, int64, error) {
	mc := memctrl.New(channel, cfg, geom, store, stats.New(cfg.BytesPerCommand()))
	next := map[int]uint32{}
	queue := make([]isa.Request, 0, len(reqs))
	var id uint64
	for _, r := range reqs {
		if r.Kind == isa.KindFence {
			continue
		}
		id++
		r.ID = id
		if r.Kind == isa.KindOrderLight {
			r.OL = isa.OLPacket{PktID: isa.PktIDOrderLight, Channel: uint8(channel), Group: uint8(r.Group), Number: next[r.Group]}
			next[r.Group]++
		}
		queue = append(queue, r)
	}
	const limit = 1 << 26
	for cy := int64(0); cy < limit; cy++ {
		for len(queue) > 0 && mc.CanAccept(queue[0]) {
			mc.Accept(queue[0])
			queue = queue[1:]
		}
		mc.Tick(cy)
		if len(queue) == 0 && mc.Pending() == 0 {
			return cy + 1, int64(id), nil
		}
	}
	return 0, 0, fmt.Errorf("memctrl: channel %d did not drain within %d cycles", channel, limit)
}

// sameRuns reports the first cell whose hand-driven statistics differ from
// the reference results (-1 when all agree).
func sameRuns(got, want []runner.Result) int {
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i].Run, want[i].Run) {
			return i
		}
	}
	return -1
}

// cellLayerMetrics turns the spans under root and the cell totals into the
// gpu, pim, dram, memctrl and kernel per-layer metrics.
func cellLayerMetrics(rec *recorder, root int, t *cellTotals) map[string]float64 {
	m := map[string]float64{}
	run, runAlloc := rec.sum("gpu.run", root)
	verify, verifyAlloc := rec.sum("gpu.verify", root)
	expand, _ := rec.sum("gpu.expand", root)
	newMachine, _ := rec.sum("gpu.new_machine", root)
	replay, _ := rec.sum("pim.replay", root)
	clone, _ := rec.sum("dram.clone", root)
	equal, _ := rec.sum("dram.equal", root)
	drain, _ := rec.sum("memctrl.drain", root)
	build, buildAlloc := rec.sum("kernel.build", root)

	m["gpu.run_ms"] = ms(run)
	m["gpu.sim_cycles"] = float64(t.simCycles)
	m["gpu.ns_per_sim_cycle"] = ratio(float64(run.Nanoseconds()), float64(t.simCycles))
	m["gpu.cmds_per_s"] = ratio(float64(t.cmds), run.Seconds())
	m["gpu.run_alloc_mb"] = float64(runAlloc) / 1e6
	m["gpu.verify_ms"] = ms(verify)
	m["gpu.verify_alloc_mb"] = float64(verifyAlloc) / 1e6
	m["gpu.expand_ms"] = ms(expand)
	m["gpu.new_machine_ms"] = ms(newMachine)
	m["pim.replay_ms"] = ms(replay)
	m["pim.replay_cmds_per_s"] = ratio(float64(t.replayed), replay.Seconds())
	m["dram.clone_ms"] = ms(clone)
	m["dram.equal_ms"] = ms(equal)
	m["dram.touched_slots"] = float64(t.touched)
	m["memctrl.drain_ns_per_cmd"] = ratio(float64(drain.Nanoseconds()), float64(t.drainedCmds))
	m["memctrl.mem_cycles"] = float64(t.memCycles)
	m["kernel.build_ms"] = ms(build)
	m["kernel.build_alloc_mb"] = float64(buildAlloc) / 1e6
	m["kernel.cmds"] = float64(t.kernelCmds)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/kernel"
	"orderlight/internal/rcache"
	"orderlight/internal/runner"
	"orderlight/internal/serve"
	"orderlight/internal/twin"
)

// The serve-mix traffic: an open loop at a fixed arrival rate into an
// in-process daemon. Unique cycle-engine jobs take the result-cache write
// path, repeats of earlier requests the whole-job memo read path, and twin
// queries the analytical tier. Arrivals are evenly spaced, so run-to-run
// differences come from the seeded request order, not from arrival bursts.
//
// No record of real daemon traffic exists to draw the mix from. The split
// and the latency limit are assumptions, chosen so each metric reads a
// known kind of request; the rate follows from the split, the unique-job
// pool and the run length. README.md says what the mix does and does not
// represent.
const (
	// mixRate puts one round of uniquePool (96 jobs) into a 30 s run at the
	// 20% unique share of mixBlock: 96 / 0.2 / 30 s = 16 requests/s.
	mixRate = 16.0
	// latencyLimit (slo_ok_ratio) is a correct answer within this of the
	// due time. A run's slowest unique job took 56 ms at the median of 20
	// runs on the reference box (44 to 72 ms), so the ratio stays near 1
	// until a change slows the unique jobs severalfold or queues requests
	// behind them.
	latencyLimit = 200 * time.Millisecond
	// A repeat names a unique job due at least repeatAge earlier, so the
	// first answer is in the cache by then. A repeat slot with no such job
	// yet becomes a twin query.
	repeatAge = time.Second
)

// mixBlock is the kind pattern of every 20 consecutive requests; the seed
// shuffles the order inside each block. Sorted by latency, repeats (20%)
// come first, then twin queries (60%), then unique jobs (20%). These fixed
// shares put p50 at the middle of the twin queries and p90 at the middle
// of the unique jobs, not on a boundary between kinds that would move with
// the draw; regen_s reads all three kinds, repeats included.
var mixBlock = strings.Fields(strings.Repeat("unique ", 4) + strings.Repeat("repeat ", 4) + strings.Repeat("twin ", 12))

// mixKinds are the request kinds of mixBlock.
var mixKinds = []string{"unique", "repeat", "twin"}

var (
	uniqueBytes = []int64{4 << 10, 8 << 10, 12 << 10, 16 << 10}
	uniquePrims = []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight}
	twinPrims   = []config.Primitive{config.PrimitiveNone, config.PrimitiveFence, config.PrimitiveOrderLight}
)

// mixItem is one request of the generated sequence.
type mixItem struct {
	Due  time.Duration // offset from the start of the pass
	Kind string        // "unique", "repeat" or "twin"
	Of   int           // repeats: index of the unique item repeated
	Req  serve.JobRequest
}

func kernelJob(base config.Config, name string, prim config.Primitive, frac string, bytes int64, engine string) serve.JobRequest {
	cfg := base.WithTSFraction(frac)
	cfg.Run.Primitive = prim
	return serve.JobRequest{Kind: serve.KindKernel, Kernel: name, Bytes: bytes, Config: &cfg, Opts: serve.RunOpts{Engine: engine}}
}

// uniquePool deals the unique kernel jobs in rounds. Each round holds every
// (kernel, primitive, footprint) once, in a random order. The TS fraction
// is fixed by the footprint and the round — the four footprints of a
// (kernel, primitive) take the four fractions, shifted by one per round —
// so no job recurs and every seed's round is the same set of jobs.
func uniquePool(base config.Config, rng *rand.Rand) []serve.JobRequest {
	type job struct {
		kernel string
		prim   config.Primitive
		size   int // index into uniqueBytes
	}
	var jobs []job
	for _, name := range kernel.Names() {
		for _, prim := range uniquePrims {
			for i := range uniqueBytes {
				jobs = append(jobs, job{name, prim, i})
			}
		}
	}
	fracs := experiments.TSFractions
	var pool []serve.JobRequest
	for round := range fracs {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			frac := fracs[(j.size+round)%len(fracs)]
			pool = append(pool, kernelJob(base, j.kernel, j.prim, frac, uniqueBytes[j.size], ""))
		}
	}
	return pool
}

// genMix makes the request and arrival sequence for span from seed alone.
func genMix(seed int64, span time.Duration) ([]mixItem, error) {
	rng := rand.New(rand.NewSource(seed))
	base := config.Default()
	pool := uniquePool(base, rng)
	var items []mixItem
	var uniques []int // indices of unique items, in due order
	old := 0          // uniques[:old] are due at least repeatAge before now
	gap := time.Duration(float64(time.Second) / mixRate)
	kinds := append([]string(nil), mixBlock...)
	for i, t := 0, time.Duration(0); t < span; i, t = i+1, t+gap {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		for old < len(uniques) && items[uniques[old]].Due <= t-repeatAge {
			old++
		}
		it := mixItem{Due: t, Kind: kinds[i%len(kinds)]}
		if it.Kind == "repeat" && old == 0 {
			it.Kind = "twin"
		}
		switch it.Kind {
		case "unique":
			if len(uniques) == len(pool) {
				return nil, fmt.Errorf("serve-mix: %v needs more than the %d unique kernel jobs", span, len(pool))
			}
			it.Req = pool[len(uniques)]
			uniques = append(uniques, len(items))
		case "repeat":
			it.Of = uniques[rng.Intn(old)]
			it.Req = items[it.Of].Req
		case "twin":
			it.Req = kernelJob(base, kernel.Names()[rng.Intn(len(kernel.Names()))],
				twinPrims[rng.Intn(len(twinPrims))],
				experiments.TSFractions[rng.Intn(len(experiments.TSFractions))],
				int64(4+rng.Intn(61))<<12, "twin") // 16 KiB to 256 KiB, the calibrated range
		}
		items = append(items, it)
	}
	return items, nil
}

// noSyncFS is the real filesystem with File.Sync turned into a no-op. The
// daemon's result cache writes through it: blobs still go to the cache
// directory through the page cache, but no call waits for the disk. On a
// disk shared with other machines the wait for fsync swings severalfold
// from one minute to the next, and it would set the latency figures; the
// benchmark measures the host's work, not the shared disk.
type noSyncFS struct{ chaos.FS }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (f noSyncFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }

// daemon is serve.Local behind serve.NewHandler on a loopback listener,
// with a result-cache directory, the shared twin calibration and one job
// worker per lane (olserve's default of one per CPU), plus the HTTP client
// the generator uses (at most lanes connections).
type daemon struct {
	svc    *serve.Local
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	client *serve.Client
	dir    string
}

func startDaemon(root, workdir string, lanes int) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "rcache-")
	if err != nil {
		return nil, err
	}
	svc := serve.NewLocal(serve.LocalConfig{
		CacheDir:    dir,
		Calibration: filepath.Join(root, "calibration.olcal"),
		Workers:     lanes,
		FS:          noSyncFS{chaos.OS},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: serve.NewHandler(svc)}, served: make(chan struct{}), dir: dir}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	d.tr = &http.Transport{MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes}
	d.client = serve.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: d.tr})
	if _, err := d.client.Healthz(context.Background()); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) // a timeout still closes the listener; Close drains the jobs
	<-d.served
	d.svc.Close()
	d.tr.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// jobRec is what the generator observed for one request.
type jobRec struct {
	done     bool // the request was issued and answered or refused
	lateness time.Duration
	latency  time.Duration // from the due time to the answer
	finished time.Time
	submit   time.Duration // Client.Submit round trip
	fetch    time.Duration // Client.Result round trip
	rejected bool
	err      error
	res      *serve.JobResult
	answer   []byte // the result as JSON, for the repeat check
	status   serve.JobStatus
}

// drive replays items as an open loop: each request is issued at its due
// time by the next free lane (one lane per connection), and timed from its
// due time, so a stall delays and charges the requests behind it. With rec
// set, every call is recorded as a span and each job's status is fetched
// after its answer for the daemon's queue-wait and execution times.
func drive(ctx context.Context, c *serve.Client, items []mixItem, recs []jobRec, lanes int, rec *recorder) time.Time {
	t0 := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				due := t0.Add(items[i].Due)
				time.Sleep(time.Until(due))
				recs[i] = runJob(ctx, c, &items[i], due, lane, rec)
			}
		}(l)
	}
	wg.Wait()
	return t0
}

func runJob(ctx context.Context, c *serve.Client, it *mixItem, due time.Time, lane int, rec *recorder) jobRec {
	r := jobRec{done: true}
	start := time.Now()
	r.lateness = start.Sub(due)
	id, err := c.Submit(ctx, it.Req)
	submitted := time.Now()
	r.submit = submitted.Sub(start)
	var watched, fetched time.Time
	if err != nil {
		r.err = err
		r.rejected = errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrQuotaExceeded) || errors.Is(err, serve.ErrDraining)
	} else if events, werr := c.Watch(ctx, id); werr != nil {
		r.err = werr
	} else {
		for range events { // the daemon closes the stream after the terminal event
		}
		watched = time.Now()
		r.res, r.err = c.Result(ctx, id)
		fetched = time.Now()
		r.fetch = fetched.Sub(watched)
	}
	r.finished = time.Now()
	r.latency = r.finished.Sub(due)
	if r.err == nil {
		r.answer, r.err = json.Marshal(r.res)
	}
	if rec != nil {
		job := rec.add(span{name: "serve.job", cell: it.Kind + " " + it.Req.Kernel, parent: -1, tid: lane + 1, start: rec.at(due), end: rec.at(r.finished)})
		rec.add(span{name: "serve.submit", cell: string(id), parent: job, tid: lane + 1, start: rec.at(start), end: rec.at(submitted)})
		if !fetched.IsZero() {
			rec.add(span{name: "serve.watch", cell: string(id), parent: job, tid: lane + 1, start: rec.at(submitted), end: rec.at(watched)})
			rec.add(span{name: "serve.fetch", cell: string(id), parent: job, tid: lane + 1, start: rec.at(watched), end: rec.at(fetched)})
			r.status, _ = c.Status(ctx, id) // timestamps only; a failure leaves them zero
		}
	}
	return r
}

// checkJobs is the serve-mix oracle: unique cycle jobs must come back
// verified and correct, each repeat byte-identical to the first answer for
// the same request, and each twin answer equal to a direct Predictor.Predict
// on the same query. It returns the indices of the jobs that failed and the
// direct predictions' host times in microseconds.
func checkJobs(items []mixItem, recs []jobRec, pred *twin.Predictor) (bad []int, predictUS []float64, declines int) {
	for i, it := range items {
		r := recs[i]
		ok := r.done && r.err == nil && r.res != nil
		switch it.Kind {
		case "unique":
			ok = ok && r.res.Run != nil && r.res.Run.Verified && r.res.Run.Correct
		case "repeat":
			first := recs[it.Of]
			ok = ok && first.err == nil && bytes.Equal(r.answer, first.answer)
		case "twin":
			spec, err := kernel.ByName(it.Req.Kernel)
			if err != nil {
				ok = false
				break
			}
			start := time.Now()
			p, err := pred.Predict(*it.Req.Config, spec, it.Req.Bytes)
			predictUS = append(predictUS, float64(time.Since(start).Nanoseconds())/1e3)
			if err != nil {
				declines++
				ok = false
				break
			}
			want, err := json.Marshal(p.Run)
			got, gerr := json.Marshal(r.res.Run)
			ok = ok && err == nil && gerr == nil && bytes.Equal(got, want)
		}
		if !ok {
			bad = append(bad, i)
		}
	}
	return bad, predictUS, declines
}

func runServeMix(ctx context.Context, o options) (*outcome, error) {
	lanes := runtime.NumCPU()
	pred, err := twin.LoadPredictor(filepath.Join(o.root, "calibration.olcal"))
	if err != nil {
		return nil, err
	}
	items, err := genMix(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, errors.New("serve-mix: the seed produced no requests")
	}
	workdir, err := os.MkdirTemp(o.workdir, "serve-mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	d, setups, err := timeSetup(daemonSetupReps, func() (*daemon, error) { return startDaemon(o.root, workdir, lanes) }, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	// Bound the passes so a wedged daemon fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(ctx, 2*o.seconds+60*time.Second)
	defer cancel()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	recs := make([]jobRec, len(items))
	t0 := drive(ctx, d.client, items, recs, lanes, nil)
	runtime.ReadMemStats(&ms1)
	p := summarize(items, recs, t0, pred)
	if o.trace {
		return traceServeMix(ctx, o, items, p, pred, lanes, workdir)
	}
	return &outcome{
		attempted: len(items),
		failed:    len(p.bad),
		metrics: map[string]float64{
			"setup_s":        median(setups),
			"regen_s":        p.kindGeo,
			"sim_cmds_per_s": median(p.uniqueRates),
			"alloc_mb":       float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(items)) / 1e6,
			"peak_rss_mb":    peakRSSMB(),
			"job_p50_ms":     quantile(p.lat, 0.5),
			"job_p90_ms":     quantile(p.lat, 0.9),
			"jobs_per_s":     float64(len(p.lat)) / p.span,
			"slo_ok_ratio":   float64(p.sloOK) / float64(len(items)),
		},
	}, nil
}

// daemonSetupReps is how many daemons a serve-mix run starts before its
// pass; setup_s is the median of their start times. One start takes about a
// millisecond.
const daemonSetupReps = 101

// passStats summarizes one pass over the request sequence.
type passStats struct {
	bad     []int     // jobs that failed the oracle
	lat     []float64 // latency of every correctly answered job, ms
	warm    []float64 // the same for jobs due in the second half of the pass
	span    float64   // first due time to last answer, s
	kindGeo float64   // geometric mean of the per-kind median latencies, s
	// uniqueRates holds, per correctly answered unique job, the PIM + host
	// commands it simulated over its due-to-answer latency, in 1/s.
	uniqueRates []float64
	sloOK       int       // correct answers within latencyLimit
	predictUS   []float64 // direct twin predictions' host times
	declines    int
}

// summarize checks a pass's answers and reduces it to passStats, printing
// the per-kind latencies and the generator's lateness.
func summarize(items []mixItem, recs []jobRec, t0 time.Time, pred *twin.Predictor) passStats {
	var p passStats
	p.bad, p.predictUS, p.declines = checkJobs(items, recs, pred)
	isBad := map[int]bool{}
	for _, i := range p.bad {
		isBad[i] = true
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix %s job %d (%s) failed: %v\n", items[i].Kind, i, items[i].Req.Kernel, recs[i].err)
	}
	var last time.Time
	var late []float64
	byKind := map[string][]float64{}
	for i, r := range recs {
		if r.finished.After(last) {
			last = r.finished
		}
		late = append(late, ms(r.lateness))
		if isBad[i] {
			continue
		}
		p.lat = append(p.lat, ms(r.latency))
		if 2*items[i].Due >= items[len(items)-1].Due {
			p.warm = append(p.warm, ms(r.latency))
		}
		byKind[items[i].Kind] = append(byKind[items[i].Kind], ms(r.latency))
		if r.latency <= latencyLimit {
			p.sloOK++
		}
		if items[i].Kind == "unique" {
			p.uniqueRates = append(p.uniqueRates, float64(r.res.Run.PIMCommands+r.res.Run.HostCommands)/r.latency.Seconds())
		}
	}
	p.span = last.Sub(t0).Seconds()
	fmt.Fprintf(os.Stderr, "serve-mix: %d requests over %.2f s, %d answered correctly in %.2f s of summed latency; generator lateness p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
		len(items), p.span, len(p.lat), mean(p.lat)*float64(len(p.lat))/1e3, quantile(late, 0.5), quantile(late, 0.9), quantile(late, 1))
	logSum, kinds := 0.0, 0
	for _, kind := range mixKinds {
		l := byKind[kind]
		if len(l) > 0 {
			logSum += math.Log(quantile(l, 0.5) / 1e3)
			kinds++
		}
		fmt.Fprintf(os.Stderr, "  %-6s %4d jobs, latency p50 %8.3f ms, p90 %8.3f ms, max %8.3f ms\n", kind, len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 1))
	}
	// Each kind weighs alike, whatever its share: a kind whose median
	// latency grows k-fold moves kindGeo by the cube root of k.
	p.kindGeo = math.Exp(logSum / float64(max(kinds, 1)))
	return p
}

// traceServeMix replays the same sequence a second time, traced, on a fresh
// daemon (empty cache), then times the layers the daemon calls directly:
// rcache Get/Put on the blobs it wrote, twin Predict on the mix's twin
// queries, and every unique kernel job driven by hand. untraced is the
// first, untraced pass; the ratio of the two passes' mean latencies over
// their second halves (past the process's own warm-up) is the tracing
// overhead.
func traceServeMix(ctx context.Context, o options, items []mixItem, untraced passStats, pred *twin.Predictor, lanes int, workdir string) (*outcome, error) {
	d, err := startDaemon(o.root, workdir, lanes)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rec := newRecorder()
	recs := make([]jobRec, len(items))
	t0 := drive(ctx, d.client, items, recs, lanes, rec)
	traced := summarize(items, recs, t0, pred)

	out := &outcome{
		attempted: 2 * len(items),
		failed:    len(untraced.bad) + len(traced.bad),
		metrics:   notExercised("runner.", "experiments."),
	}
	var submit, fetch, wait, exec, late []float64
	rejected := 0
	for _, r := range recs {
		late = append(late, ms(r.lateness))
		if r.rejected {
			rejected++
		}
		if r.err != nil {
			continue
		}
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		if !r.status.FinishedAt.IsZero() {
			wait = append(wait, ms(r.status.StartedAt.Sub(r.status.SubmittedAt)))
			exec = append(exec, ms(r.status.FinishedAt.Sub(r.status.StartedAt)))
		}
	}
	h, err := d.client.Healthz(ctx)
	if err != nil {
		return nil, err
	}
	getUS, putUS, err := probeCache(d.dir, workdir)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["serve.submit_ms"] = median(submit)
	m["serve.fetch_ms"] = median(fetch)
	m["serve.queue_wait_ms"] = median(wait)
	m["serve.exec_ms"] = median(exec)
	m["serve.rejected"] = float64(rejected)
	m["serve.lateness_p90_ms"] = quantile(late, 0.9)
	m["rcache.hit_ratio"] = ratio(float64(h.CacheHits), float64(h.CacheHits+h.CacheMisses))
	m["rcache.get_us"] = median(getUS)
	m["rcache.put_us"] = median(putUS)
	m["twin.predict_us"] = median(traced.predictUS)
	m["twin.declines"] = float64(traced.declines)
	m["trace.overhead_ratio"] = ratio(mean(traced.warm), mean(untraced.warm))

	// Every unique job, driven by hand: each must reproduce the statistics
	// the daemon answered with.
	pass := rec.open("traced.cells", "serve-mix", -1)
	t := &cellTotals{}
	built := map[string]bool{}
	for i, it := range items {
		if it.Kind != "unique" || recs[i].err != nil {
			continue
		}
		spec, err := kernel.ByName(it.Req.Kernel)
		if err != nil {
			return nil, err
		}
		c := runner.Cell{
			Key:  fmt.Sprintf("serve/%s/%v/ts=%dB/%dB", it.Req.Kernel, it.Req.Config.Run.Primitive, it.Req.Config.PIM.TSBytes, it.Req.Bytes),
			Cfg:  *it.Req.Config,
			Spec: spec, Bytes: it.Req.Bytes,
		}
		res, err := traceCell(rec, pass, &c, built, t)
		if err != nil {
			return nil, err
		}
		got, _ := json.Marshal(res.Run)
		want, _ := json.Marshal(recs[i].res.Run)
		if !bytes.Equal(got, want) {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: hand-driven %s disagrees with the daemon's answer\n", c.Key)
		}
	}
	rec.close(pass)
	for k, v := range cellLayerMetrics(rec, pass, t) {
		m[k] = v
	}
	fmt.Fprintf(os.Stderr, "serve-mix traced pass: %d unique jobs driven by hand; second-half latency mean %.3f ms traced vs %.3f ms untraced\n",
		t.cells, mean(traced.warm), mean(untraced.warm))

	path := filepath.Join(o.workdir, o.workload+".trace.json")
	if err := rec.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(rec.spans), path)
	return out, nil
}

// probeCache times rcache Put and Get on the blobs the daemon's cache holds,
// replayed into a fresh cache on the daemon's filesystem seam, and returns
// the per-call times in microseconds.
func probeCache(daemonDir, workdir string) (getUS, putUS []float64, err error) {
	dir, err := os.MkdirTemp(workdir, "probe-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	c, err := rcache.OpenWith(rcache.Config{Dir: dir, FS: noSyncFS{chaos.OS}})
	if err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(daemonDir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".res") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(daemonDir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		key, data, err := rcache.Decode(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("rcache blob %s: %w", e.Name(), err)
		}
		start := time.Now()
		if err := c.Put(key, data); err != nil {
			return nil, nil, err
		}
		putUS = append(putUS, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		got, ok := c.Get(key)
		getUS = append(getUS, float64(time.Since(start).Nanoseconds())/1e3)
		if !ok || !bytes.Equal(got, data) {
			return nil, nil, fmt.Errorf("rcache probe: Get(%q) did not return what Put stored", key)
		}
	}
	return getUS, putUS, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

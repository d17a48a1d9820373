package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/cluster"
	"sconrep/internal/history"
	"sconrep/internal/replica"
)

// config fixes one run. run_seconds and the seed come from the command
// line; the rest is constant for the benchmark and shortened by tests.
type config struct {
	workload workload
	seed     int64
	// warmup runs traffic before the timed window so connection pools
	// fill and the heap reaches its working size.
	warmup, seconds time.Duration
	// setups is how many times the cluster is built; setup_s is their
	// median and the last one serves the run.
	setups int
	trace  bool
	// slice is the traced run's alternation period between traced and
	// untraced operation; trace_overhead_pct compares the two halves.
	slice time.Duration
	// replayCap bounds how many of the run's writesets the certifier
	// and storage replays use.
	replayCap int
	// outDir receives the traced run's span file.
	outDir string
}

func defaultConfig(w workload, seed int64, seconds time.Duration, trace bool) config {
	return config{
		workload: w, seed: seed, seconds: seconds, trace: trace,
		warmup:    2 * time.Second,
		setups:    7,
		slice:     100 * time.Millisecond,
		replayCap: 100_000,
		outDir:    filepath.Join(".bench_build", "perfbench"),
	}
}

// bench is one run's live state.
type bench struct {
	cfg     config
	traffic traffic
	c       *cluster.Cluster
	// v0 is the version LoadData left the cluster at.
	v0 uint64
	// tracing is set while operations are traced (traced runs only).
	tracing atomic.Bool
	wire    *wireCounters
}

// opRec is one client operation, timed from submit to ack in
// nanoseconds since the run's origin.
type opRec struct {
	start, end int64
	kind       uint8
	update     bool
	traced     bool
	// early and conflicts count the retried attempts that lost
	// certification (see opOutcome).
	early, conflicts uint8
	err              error
}

// opLog keeps one session's operations in fixed-size chunks: recording
// never copies earlier records, so the benchmark's own share of the live
// heap grows steadily instead of doubling at moments that vary from run
// to run.
type opLog struct{ chunks [][]opRec }

const opChunk = 4096

func (l *opLog) add(r opRec) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == opChunk {
		l.chunks = append(l.chunks, make([]opRec, 0, opChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], r)
}

// window is what the timed window measured.
type window struct {
	start, end int64 // ns since origin
	ops        []opRec
	spans      []span
	cpu        time.Duration
	heapPeak   uint64
	mem0, mem1 runtime.MemStats
	onTime     time.Duration // traced share of the window
	lagSum     float64
	lagMax     uint64
	lagN       int
	applied    int64
	versions   uint64
	dials      int64
}

// setup builds, loads and registers a fresh cluster and runs one probe
// transaction through it; the returned duration is setup_s.
func (b *bench) setup() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	traf := b.cfg.workload.newTraffic()
	ccfg := cluster.Config{
		Replicas:      numReplicas,
		Mode:          b.cfg.workload.mode,
		Seed:          b.cfg.seed,
		RecordHistory: b.cfg.trace,
	}
	var c *cluster.Cluster
	var err error
	var wc *wireCounters
	if b.cfg.workload.networked {
		var ncfg cluster.NetConfig
		if b.cfg.trace {
			wc = &wireCounters{on: &b.tracing}
			ncfg.DialerFor = wc.dialerFor
		}
		c, err = cluster.NewNetworked(ccfg, ncfg)
	} else {
		c, err = cluster.New(ccfg)
	}
	if err != nil {
		return 0, fmt.Errorf("building cluster: %w", err)
	}
	if err := c.LoadData(traf.load); err != nil {
		c.Close()
		return 0, fmt.Errorf("loading data: %w", err)
	}
	v0 := c.Certifier().Version()
	traf.register(c)
	s := c.SessionWithID("perfbench-probe")
	err = traf.probe(s)
	s.Close()
	if err != nil {
		c.Close()
		return 0, fmt.Errorf("probe transaction: %w", err)
	}
	d := time.Since(start)
	b.c, b.traffic, b.v0, b.wire = c, traf, v0, wc
	return d, nil
}

// drive runs the closed-loop sessions through warm-up and the timed
// window, sampling the process and the cluster while the window runs.
func (b *bench) drive() *window {
	origin := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	logs := make([]opLog, numSessions)
	bufs := make([]*spanBuf, numSessions)
	for i := 0; i < numSessions; i++ {
		if b.cfg.trace {
			bufs[i] = newSpanBuf(origin, i)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := b.c.SessionWithID(fmt.Sprintf("perfbench-%d", i))
			defer s.Close()
			cl := b.traffic.newClient(i, b.cfg.seed)
			for !stop.Load() {
				traced := b.tracing.Load()
				var sp *spanBuf
				if traced {
					sp = bufs[i]
				}
				t0 := time.Now()
				out := cl.op(s, sp)
				t1 := time.Now()
				logs[i].add(opRec{
					start: int64(t0.Sub(origin)), end: int64(t1.Sub(origin)),
					kind: uint8(out.kind), update: out.update, traced: traced,
					early: uint8(out.early), conflicts: uint8(out.conflicts), err: out.err,
				})
			}
		}(i)
	}

	time.Sleep(b.cfg.warmup)
	w := &window{}
	mon := b.startMonitor(w)
	cpu0 := cpuTime()
	runtime.ReadMemStats(&w.mem0)
	applied0 := b.appliedRefreshes()
	ver0 := b.c.Certifier().Version()
	dials0 := b.dials()
	start := time.Now()
	end := start.Add(b.cfg.seconds)
	if b.cfg.trace {
		// Alternate traced and untraced slices so both halves see the
		// same heap growth and table sizes.
		on := true
		b.tracing.Store(true)
		last := start
		for t := start.Add(b.cfg.slice); t.Before(end); t = t.Add(b.cfg.slice) {
			time.Sleep(time.Until(t))
			now := time.Now()
			if on {
				w.onTime += now.Sub(last)
			}
			last, on = now, !on
			b.tracing.Store(on)
		}
		time.Sleep(time.Until(end))
		if on {
			w.onTime += time.Since(last)
		}
		b.tracing.Store(false)
	} else {
		time.Sleep(time.Until(end))
	}
	stopAt := time.Now()
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.applied = b.appliedRefreshes() - applied0
	w.versions = b.c.Certifier().Version() - ver0
	w.dials = b.dials() - dials0
	mon()
	// The live heap is only known at the end of a GC cycle, so the
	// samples miss whatever grew since the last one; a forced cycle at
	// the window's end gives the exact figure the heap has reached.
	runtime.GC()
	w.heapPeak = max(w.heapPeak, liveHeap())
	stop.Store(true)
	wg.Wait()

	w.start, w.end = int64(start.Sub(origin)), int64(stopAt.Sub(origin))
	for i := range logs {
		for _, c := range logs[i].chunks {
			for _, r := range c {
				if r.start >= w.start && r.end <= w.end {
					w.ops = append(w.ops, r)
				}
			}
		}
		if bufs[i] != nil {
			for _, s := range bufs[i].spans {
				if s.start >= w.start && s.end <= w.end {
					w.spans = append(w.spans, s)
				}
			}
		}
	}
	return w
}

// startMonitor samples the live heap every 100 ms and, in traced runs,
// every replica's version lag every 10 ms, until the returned function
// is called; it returns once the sampler has exited.
func (b *bench) startMonitor(w *window) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		period, heapEvery := 100*time.Millisecond, 1
		if b.cfg.trace {
			period, heapEvery = 10*time.Millisecond, 10
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		vers := make([]uint64, b.c.NumReplicas())
		for n := 0; ; n++ {
			if n%heapEvery == 0 {
				w.heapPeak = max(w.heapPeak, liveHeap())
			}
			if b.cfg.trace {
				// Replica versions first: the certifier's version read
				// afterwards is never below any of them.
				for i := range vers {
					vers[i] = b.c.Replica(i).Version()
				}
				cv := b.c.Certifier().Version()
				for _, v := range vers {
					lag := cv - v
					w.lagSum += float64(lag)
					w.lagN++
					w.lagMax = max(w.lagMax, lag)
				}
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// liveHeap returns the heap the last GC cycle found live.
func liveHeap() uint64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return live[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) appliedRefreshes() int64 {
	var n int64
	for i := 0; i < b.c.NumReplicas(); i++ {
		n += b.c.Replica(i).AppliedRefreshes()
	}
	return n
}

func (b *bench) dials() int64 {
	if b.wire == nil {
		return 0
	}
	return b.wire.totalDials()
}

// quiesce waits until every replica has applied the certifier's latest
// version.
func (b *bench) quiesce() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := b.c.Certifier().Version()
		behind := -1
		for i := 0; i < b.c.NumReplicas(); i++ {
			if b.c.Replica(i).Version() != v {
				behind = i
				break
			}
		}
		if behind < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %d still at %d, certifier at %d after 30s", behind, b.c.Replica(behind).Version(), v)
		}
		time.Sleep(time.Millisecond)
	}
}

// check runs the workload's correctness checks on the quiesced cluster
// and, in traced runs, the strong-consistency oracle over the history.
func (b *bench) check() []string {
	var problems []string
	if err := b.quiesce(); err != nil {
		return []string{err.Error()}
	}
	if err := b.traffic.check(b.c); err != nil {
		problems = append(problems, err.Error())
	}
	if b.cfg.trace {
		if v := history.CheckStrong(b.c.Recorder().Events()); len(v) > 0 {
			problems = append(problems, fmt.Sprintf("history: %d strong-consistency violations, first: %s", len(v), v[0]))
		}
	}
	return problems
}

// writesets returns up to limit writesets certified after v0, in
// version order, from the certifier's history pages.
func (b *bench) writesets(limit int) ([]certifier.Refresh, error) {
	var out []certifier.Refresh
	after := b.v0
	for len(out) < limit {
		page := b.c.Certifier().History(after)
		if len(page) == 0 {
			break
		}
		for _, r := range page {
			if r.Version != after+1 || r.WS == nil {
				return nil, fmt.Errorf("history: expected writeset at version %d, got version %d (skip marker: %v)", after+1, r.Version, r.WS == nil)
			}
			out = append(out, r)
			after = r.Version
		}
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// result is one run's outcome.
type result struct {
	cfg       config
	prov      provenance
	problems  []string
	attempted int64
	failed    int64
	// conflicts counts the failures that lost certification.
	conflicts int64
	// retried counts the attempts that lost certification and were run
	// again (TPC-W only).
	retried  int64
	endToEnd map[string]metric
	perLayer map[string]metric
	// info holds end-to-end figures printed in the report but not
	// gated by BENCHMARK.json.
	info map[string]metric
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// abortKind reports whether err lost certification: "early" for an
// early-certification abort, "conflict" for a failed certify, "" for
// anything else. It matches the error text as well as the chain: over
// TCP both kinds arrive as a certification conflict carrying the
// replica's message, and some TPC-W interactions wrap errors with %v.
func abortKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, replica.ErrEarlyAbort) || strings.Contains(err.Error(), replica.ErrEarlyAbort.Error()):
		return "early"
	case errors.Is(err, replica.ErrCertifyConflict) || strings.Contains(err.Error(), replica.ErrCertifyConflict.Error()):
		return "conflict"
	}
	return ""
}

// run executes one benchmark run.
func run(cfg config) (*result, error) {
	b := &bench{cfg: cfg}
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if b.c != nil {
			b.c.Close()
		}
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer b.c.Close()

	w := b.drive()
	res := &result{cfg: cfg, prov: newProvenance(cfg)}
	res.problems = b.check()
	for _, op := range w.ops {
		res.attempted++
		res.retried += int64(op.early) + int64(op.conflicts)
		if op.err != nil {
			res.failed++
			if abortKind(op.err) != "" {
				res.conflicts++
			}
			if res.failed <= 3 {
				fmt.Fprintln(os.Stderr, "perfbench: operation failed:", op.err)
			}
		}
	}
	if res.attempted == 0 {
		return nil, errors.New("no operation completed inside the timed window")
	}
	res.endToEnd, res.info = endToEnd(w, setups)
	res.info["failed_ratio"] = metric{Value: float64(res.failed) / float64(res.attempted), Unit: "ratio",
		note: fmt.Sprintf("%d of %d attempted; %d lost certification", res.failed, res.attempted, res.conflicts)}
	res.info["retried_ratio"] = metric{Value: float64(res.retried) / float64(res.attempted), Unit: "ratio",
		note: fmt.Sprintf("%d attempts lost certification and were retried", res.retried)}
	res.prov.Samples = sampleCounts(w)
	if cfg.trace {
		var err error
		if res.perLayer, err = b.perLayer(w); err != nil {
			res.problems = append(res.problems, err.Error())
		}
		if len(w.spans) == 0 {
			return res, nil
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", cfg.workload.name, cfg.seed))
		if err := writeSpans(path, w.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.prov.SpanFile = path
	}
	return res, nil
}

// ---- metrics ----

// latencies returns the submit-to-ack times, in µs, of the committed
// operations op selects.
func latencies(w *window, sel func(opRec) bool) []float64 {
	var out []float64
	for _, op := range w.ops {
		if op.err == nil && sel(op) {
			out = append(out, float64(op.end-op.start)/1e3)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func countOK(w *window) int64 {
	var n int64
	for _, op := range w.ops {
		if op.err == nil {
			n++
		}
	}
	return n
}

// endToEnd computes the gated end-to-end metrics and the report-only
// ones (see NOTES.md, "Noise", for why the p99s are not gated).
func endToEnd(w *window, setups []float64) (gated, info map[string]metric) {
	ok := countOK(w)
	secs := float64(w.end-w.start) / 1e9
	ro := latencies(w, func(op opRec) bool { return !op.update })
	upd := latencies(w, func(op opRec) bool { return op.update })
	pct := func(xs []float64, q float64) metric {
		return metric{Value: quantile(xs, q), Unit: "us", note: fmt.Sprintf("n=%d", len(xs))}
	}
	gated = map[string]metric{
		"setup_s":        {Value: median(setups), Unit: "s", note: fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups)},
		"tps":            {Value: float64(ok) / secs, Unit: "1/s", note: fmt.Sprintf("n=%d committed in %.3fs", ok, secs)},
		"ro_p50_us":      pct(ro, 0.50),
		"ro_p95_us":      pct(ro, 0.95),
		"upd_p50_us":     pct(upd, 0.50),
		"upd_p95_us":     pct(upd, 0.95),
		"cpu_us_per_txn": {Value: float64(w.cpu.Microseconds()) / float64(max(ok, 1)), Unit: "us", note: fmt.Sprintf("user+sys %.3fs", w.cpu.Seconds())},
		"heap_peak_mb":   {Value: float64(w.heapPeak) / (1 << 20), Unit: "MB", note: "live heap, sampled every 100ms and after a GC at the window's end"},
	}
	info = map[string]metric{
		"ro_p99_us":  pct(ro, 0.99),
		"upd_p99_us": pct(upd, 0.99),
	}
	return gated, info
}

// sampleCounts gives the number of committed operations behind each
// latency percentile, and the operations and spans in the window.
func sampleCounts(w *window) map[string]int {
	n := map[string]int{"ops": len(w.ops), "spans": len(w.spans)}
	for _, op := range w.ops {
		switch {
		case op.err != nil:
		case op.update:
			n["upd"]++
		default:
			n["ro"]++
		}
	}
	return n
}

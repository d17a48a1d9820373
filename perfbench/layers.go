package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/workload/tpcw"
	"sconrep/internal/writeset"
)

// perLayer computes the traced run's per-layer metrics. A layer a
// workload does not cross (cluster spans on TPC-W, TPC-W interactions on
// micro, the wire in process) reads 0 and says so in its note.
func (b *bench) perLayer(w *window) (map[string]metric, error) {
	m := map[string]metric{}
	na := func(unit, why string) metric { return metric{Unit: unit, note: "n/a: " + why} }
	us := func(v float64, n int) metric { return metric{Value: v, Unit: "us", note: fmt.Sprintf("n=%d", n)} }

	// Only operations that started inside a traced slice carry spans
	// and wire counts.
	var tracedOK, untracedOK int64
	for _, op := range w.ops {
		switch {
		case op.err != nil:
		case op.traced:
			tracedOK++
		default:
			untracedOK++
		}
	}

	// cluster: spans around Session.Begin, Tx.Exec and Tx.Commit.
	byKind := map[uint8][]float64{}
	for _, s := range w.spans {
		byKind[s.kind] = append(byKind[s.kind], float64(s.end-s.start)/1e3)
	}
	for _, k := range []uint8{spanBegin, spanExec, spanCommitRO, spanCommitUpd} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			name := fmt.Sprintf("cluster.%s_us.%s", spanNames[k], q.name)
			if len(w.spans) == 0 {
				m[name] = na("us", "TPC-W interactions make their own cluster calls")
				continue
			}
			xs := byKind[k]
			m[name] = us(quantile(xs, q.q), len(xs))
		}
	}

	// tpcw: median latency per interaction.
	kinds := b.traffic.kinds()
	for _, in := range tpcw.ShoppingMix().Interactions {
		name := fmt.Sprintf("tpcw.%s.p50_us", in.Name)
		if kinds == nil {
			m[name] = na("us", "micro workload")
			continue
		}
		k := -1
		for i, n := range kinds {
			if n == in.Name {
				k = i
			}
		}
		xs := latencies(w, func(op opRec) bool { return op.traced && int(op.kind) == k })
		m[name] = us(quantile(xs, 0.50), len(xs))
	}

	// sql: parse and plan every TPC-W statement.
	prep, err := prepareTimes()
	if err != nil {
		return nil, err
	}
	m["sql.prepare_us.p50"] = us(quantile(prep, 0.50), len(prep))
	m["sql.prepare_us.p99"] = us(quantile(prep, 0.99), len(prep))

	// replica and certifier: counters over the whole timed window.
	secs := float64(w.end-w.start) / 1e9
	// Aborts per 1,000 attempts, counting retried attempts as well as
	// operations that ended in an abort.
	var early, conflict, nAttempts int64
	for _, op := range w.ops {
		early += int64(op.early)
		conflict += int64(op.conflicts)
		nAttempts += 1 + int64(op.early) + int64(op.conflicts)
		switch abortKind(op.err) {
		case "early":
			early++
		case "conflict":
			conflict++
		}
	}
	attempts := float64(nAttempts)
	m["replica.lag_versions.mean"] = metric{Value: w.lagSum / float64(max(w.lagN, 1)), Unit: "versions", note: fmt.Sprintf("n=%d samples", w.lagN)}
	m["replica.lag_versions.max"] = metric{Value: float64(w.lagMax), Unit: "versions"}
	m["replica.applied_per_s"] = metric{Value: float64(w.applied) / secs, Unit: "1/s", note: "refreshes, all replicas"}
	m["replica.early_aborts_per_1k"] = metric{Value: 1000 * float64(early) / attempts, Unit: "count/1k", note: fmt.Sprintf("%d of %d attempts", early, nAttempts)}
	m["certifier.versions_per_s"] = metric{Value: float64(w.versions) / secs, Unit: "1/s"}
	m["certifier.conflict_aborts_per_1k"] = metric{Value: 1000 * float64(conflict) / attempts, Unit: "count/1k", note: fmt.Sprintf("%d of %d attempts", conflict, nAttempts)}

	// certifier and storage replays of the run's writesets.
	refs, err := b.writesets(b.cfg.replayCap)
	if err != nil {
		return nil, err
	}
	cert, err := replayCertify(refs, b.v0)
	if err != nil {
		return nil, err
	}
	m["certifier.certify_us.p50"] = us(quantile(cert, 0.50), len(cert))
	m["certifier.certify_us.p99"] = us(quantile(cert, 0.99), len(cert))
	apply, err := replayApply(refs, b.v0, b.traffic.load)
	if err != nil {
		return nil, err
	}
	m["storage.apply_us_per_ws"] = metric{Value: apply, Unit: "us", note: fmt.Sprintf("n=%d writesets in batches of %d", len(refs), applyBatch)}

	// wire: counted at the dialing end of each link, traced slices only.
	links := []struct {
		name string
		st   func(*wireCounters) *linkStats
	}{
		{"client", func(w *wireCounters) *linkStats { return &w.client }},
		{"replica", func(w *wireCounters) *linkStats { return &w.replica }},
		{"cert", func(w *wireCounters) *linkStats { return &w.cert }},
	}
	perTxn := func(v int64) float64 { return float64(v) / float64(max(tracedOK, 1)) }
	for _, l := range links {
		bytes, writes, wait := "wire."+l.name+".bytes_per_txn", "wire."+l.name+".writes_per_txn", "wire."+l.name+".read_wait_us_per_txn"
		if b.wire == nil {
			m[bytes], m[writes] = na("B", "in-process cluster"), na("count", "in-process cluster")
			if l.name != "cert" {
				m[wait] = na("us", "in-process cluster")
			}
			continue
		}
		st := l.st(b.wire)
		m[bytes] = metric{Value: perTxn(st.bytes.Load()), Unit: "B"}
		m[writes] = metric{Value: perTxn(st.writes.Load()), Unit: "count"}
		if l.name != "cert" {
			// The certifier link's reads block on the refresh stream
			// between commits, so their wait is idle time, not latency.
			m[wait] = metric{Value: perTxn(st.readWaitNs.Load()) / 1e3, Unit: "us"}
		}
	}
	if b.wire == nil {
		m["wire.redials"] = na("count", "in-process cluster")
	} else {
		m["wire.redials"] = metric{Value: float64(w.dials), Unit: "count", note: "dials inside the timed window"}
	}

	// runtime: allocation and GC over the whole window.
	ok := float64(max(tracedOK+untracedOK, 1))
	m["runtime.alloc_kb_per_txn"] = metric{Value: float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1024 / ok, Unit: "KB"}
	m["runtime.gc_cycles"] = metric{Value: float64(w.mem1.NumGC - w.mem0.NumGC), Unit: "count"}
	m["runtime.gc_pause_ms"] = metric{Value: float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6, Unit: "ms"}

	// overhead: traced slices' throughput against untraced slices'.
	tpsOn := float64(tracedOK) / w.onTime.Seconds()
	tpsOff := float64(untracedOK) / (secs - w.onTime.Seconds())
	m["trace_overhead_pct"] = metric{Value: 100 * (tpsOff - tpsOn) / tpsOff, Unit: "%",
		note: fmt.Sprintf("traced %.1f tps vs untraced %.1f tps", tpsOn, tpsOff)}
	return m, nil
}

// prepareRounds × the TPC-W statements gives the sql.prepare sample.
const prepareRounds = 50

// prepareTimes times sql.Prepare on every statement in tpcw.TxnNames.
func prepareTimes() ([]float64, error) {
	var stmts []string
	for _, ps := range tpcw.TxnNames {
		for _, p := range ps {
			stmts = append(stmts, p.SQL)
		}
	}
	sort.Strings(stmts)
	out := make([]float64, 0, prepareRounds*len(stmts))
	for r := 0; r < prepareRounds; r++ {
		for _, q := range stmts {
			t := time.Now()
			_, err := sql.Prepare(q)
			out = append(out, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				return nil, fmt.Errorf("sql.Prepare: %w", err)
			}
		}
	}
	return out, nil
}

// replayCertify certifies refs single-threaded into a fresh certifier
// configured as the cluster's (in-memory decision log), each at a
// snapshot that has seen every earlier version, and returns the µs per
// call. Every replayed writeset must commit at its original version.
func replayCertify(refs []certifier.Refresh, v0 uint64) ([]float64, error) {
	c := certifier.New(certifier.WithWAL(wal.NewMemory()))
	if err := c.StartAt(v0); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(refs))
	for i, r := range refs {
		t := time.Now()
		dec, err := c.Certify(0, uint64(i+1), r.Version-1, r.WS)
		out = append(out, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return nil, fmt.Errorf("certify replay at %d: %w", r.Version, err)
		}
		if !dec.Commit || dec.Version != r.Version {
			return nil, fmt.Errorf("certify replay: version %d decided %+v", r.Version, dec)
		}
	}
	return out, nil
}

// applyBatch is the storage replay's group-apply size.
const applyBatch = 8

// replayApply loads a fresh engine with the workload's data and applies
// refs to it with ApplyWriteSetBatch; it returns µs per writeset.
func replayApply(refs []certifier.Refresh, v0 uint64, load func(*storage.Engine) error) (float64, error) {
	e := storage.NewEngine()
	if err := load(e); err != nil {
		return 0, err
	}
	if e.Version() != v0 {
		return 0, fmt.Errorf("apply replay: fresh engine loaded at %d, cluster at %d", e.Version(), v0)
	}
	if len(refs) == 0 {
		return 0, nil
	}
	batch := make([]*writeset.WriteSet, 0, applyBatch)
	var total time.Duration
	for i := 0; i < len(refs); i += applyBatch {
		batch = batch[:0]
		for _, r := range refs[i:min(i+applyBatch, len(refs))] {
			batch = append(batch, r.WS)
		}
		t := time.Now()
		err := e.ApplyWriteSetBatch(batch, refs[i].Version)
		total += time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("apply replay: %w", err)
		}
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(len(refs)), nil
}

// provenance records what produced a result.
type provenance struct {
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Warmup     string         `json:"warmup"`
	Run        string         `json:"run"`
	Setups     int            `json:"setups"`
	Traced     bool           `json:"traced"`
	Samples    map[string]int `json:"samples"`
	SpanFile   string         `json:"span_file,omitempty"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		Commit:     vcsRevision(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Warmup:     cfg.warmup.String(),
		Run:        cfg.seconds.String(),
		Setups:     cfg.setups,
		Traced:     cfg.trace,
	}
}

// vcsRevision is the commit the binary was built from, when it was
// built inside a git checkout.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout; see source_sha256)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash digests the module's Go sources and go.mod under root, so
// a result names the code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

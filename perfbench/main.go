// Command perfbench is sconrep's repository benchmark: one command that
// drives a 4-replica cluster through its public API on one of three
// workloads, checks the outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output. NOTES.md beside this file gives the reason for each workload,
// the layer → end-to-end metric map and what is left unmeasured.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload micro-read-tcp --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: micro-read-tcp, micro-write-esc or tpcw-shopping-tcp")
	seed := flag.Int64("seed", 1, "workload seed (operation choices and TPC-W browser contexts)")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note is printed in the human-readable report only: sample counts
	// behind a percentile, or why a layer is not on this workload.
	note string
}

// summary is the result line, the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summary {
	m := r.endToEnd
	if r.cfg.trace {
		m = r.perLayer
	}
	return summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// report prints provenance, the problems found, and every metric with
// its unit and note, ahead of the summary line.
func (r *result) report(w *os.File) {
	mode := "end-to-end"
	m := r.endToEnd
	if r.cfg.trace {
		mode, m = "per-layer (traced)", r.perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s\n", r.cfg.workload.name, r.cfg.seed, mode)
	prov, _ := json.Marshal(map[string]any{"provenance": r.prov})
	fmt.Fprintln(w, string(prov))
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	printMetrics(w, m)
	fmt.Fprintln(w, "  not gated:")
	printMetrics(w, r.info)
}

func printMetrics(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.3f %-8s %s\n", n, m[n].Value, m[n].Unit, m[n].note)
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortConfig shrinks a run to well under a second of traffic.
func shortConfig(t *testing.T, name string, trace bool) config {
	cfg := defaultConfig(workloads[name], 7, 600*time.Millisecond, trace)
	cfg.warmup = 200 * time.Millisecond
	cfg.setups = 2
	cfg.slice = 100 * time.Millisecond
	cfg.replayCap = 2000
	cfg.outDir = t.TempDir()
	return cfg
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	var got []string
	for _, w := range readSpec(t).Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
}

// TestShortRunsProduceEveryMetric runs each workload briefly, untraced
// and traced, and requires the correctness checks to pass and the
// summary to carry exactly the metrics BENCHMARK.json declares.
func TestShortRunsProduceEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := run(shortConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			sum := res.summary()
			if !sum.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", w.Name, trace, res.problems)
			}
			// Micro sessions never write the same row, and a TPC-W
			// browser that loses certification runs the interaction
			// again: no operation may fail.
			if sum.Attempted < 1 || sum.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed, %d of them conflicts", w.Name, trace, sum.Attempted, sum.Failed, res.conflicts)
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestMicroSumCheckCatchesMiscount shows the micro sum check failing
// when the benchmark's count of committed updates is off by one.
func TestMicroSumCheckCatchesMiscount(t *testing.T) {
	b := &bench{cfg: shortConfig(t, "micro-write-esc", false)}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.c.Close()
	b.drive()
	if p := b.check(); len(p) != 0 {
		t.Fatalf("checks failed on a correct run: %v", p)
	}
	b.traffic.(*microTraffic).committed[2].Add(1)
	p := b.check()
	if len(p) != 1 || !strings.Contains(p[0], "micro2 SUM(val)") {
		t.Fatalf("miscounted update not caught: %v", p)
	}
}

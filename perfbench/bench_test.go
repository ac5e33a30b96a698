package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vmdeflate/internal/clustersim"
)

// tinyVMs keeps the smoke runs to a fraction of a second each.
const tinyVMs = 800

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// names returns the metric names and units of a report, sorted by name.
func names(m metricSet) []string {
	var out []string
	for n, v := range m {
		out = append(out, n+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func equalLists(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: printed %d metrics, BENCHMARK.json names %d\nprinted: %v\nnamed:   %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: printed %q where BENCHMARK.json names %q", what, got[i], want[i])
		}
	}
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json names exactly the
// workloads this program runs.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	equalLists(t, "workloads", got, want)
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the run passes its output checks and prints exactly
// the metrics BENCHMARK.json names, with the same units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		w := w.scaled(tinyVMs)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				opts := options{seed: 3, traced: traced}
				if traced {
					opts.spansPath = filepath.Join(t.TempDir(), "spans.bin")
				}
				rep, err := run(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != minRepeats*tinyVMs {
					t.Fatalf("traced=%v: correct %v, attempted %d, failed %d", traced, rep.Correct, rep.Attempted, rep.Failed)
				}
				if traced {
					equalLists(t, "per_layer", names(rep.Metrics), specNames(spec.PerLayer))
					if fi, err := os.Stat(opts.spansPath); err != nil || fi.Size() == 0 {
						t.Fatalf("spans file not written: %v", err)
					}
				} else {
					equalLists(t, "end_to_end", names(rep.Metrics), specNames(spec.EndToEnd))
				}
			}
		})
	}
}

// TestTamperedResultFailsChecks checks that the output checks reject a
// Result that does not account for its trace, a repeat that differs,
// and replay counts that disagree with the engine.
func TestTamperedResultFailsChecks(t *testing.T) {
	w := workloads[0].scaled(tinyVMs)
	s, err := w.newSetup(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, tinyVMs); err != nil {
		t.Fatalf("untampered Result fails: %v", err)
	}
	tamper := map[string]func(r *clustersim.Result){
		"admitted": func(r *clustersim.Result) { r.Admitted++ },
		"arrivals": func(r *clustersim.Result) { r.Arrivals-- },
		"rejected": func(r *clustersim.Result) { r.Rejected++ },
	}
	for what, f := range tamper {
		bad := *res
		f(&bad)
		if checkResult(&bad, tinyVMs) == nil {
			t.Errorf("tampered %s passes checkResult", what)
		}
		if sameResult(&bad, res) {
			t.Errorf("tampered %s compares equal to the original", what)
		}
	}
	bad := *res
	bad.ThroughputLoss += 1e-12
	if sameResult(&bad, res) {
		t.Error("a Result differing in the last digits of ThroughputLoss compares equal")
	}

	rr, err := replay(w, s.in.stream, s.in.base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkParity(rr.counts, res); err != nil {
		t.Fatalf("replay parity: %v", err)
	}
	c := rr.counts
	c.evacuations++
	if checkParity(c, res) == nil {
		t.Error("replay counts with one extra evacuation pass the parity check")
	}
}

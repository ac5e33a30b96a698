// Command perfbench is the deflation simulator's benchmark. It runs one
// named workload through the public API — trace generation,
// clustersim.PeakServerLowerBound[Stream], clustersim.NewEngine and
// Engine.Run — repeatedly for a fixed time, checks every Result, and
// prints one JSON object as its last line of output: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload heavytail-pressure --seed 1 --seconds 35 --trace 0
//
// The load is a closed loop with one caller: the simulator is a batch
// job over a fixed trace, so throughput is simulated arrivals per host
// second at each workload's stated trace size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// metrics collects named values; a name set twice is a bug.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if _, dup := m[name]; dup {
		panic("perfbench: metric " + name + " set twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "trace and shock-schedule seed")
		seconds = flag.Float64("seconds", 35, "how long the run measures: untraced repeats and, with --trace 0, set-ups alone")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and the replay")
		spans   = flag.String("spans", "", "file the replay's spans are written to with --trace 1 (default .bench_build/spans-<workload>.bin)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	opts := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, spansPath: *spans}
	if opts.traced && opts.spansPath == "" {
		opts.spansPath = filepath.Join(".bench_build", "spans-"+w.name+".bin")
	}
	rep, err := run(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

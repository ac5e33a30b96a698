package clustersim

import (
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// sloSteadyEngine stands up a populated deflation-mode engine with SLO
// metering on: a bursty trace's VMs are all admitted at time 0, so
// subsequent samplePass calls meter a steady running set — the per-VM
// queueing math exactly as the event loop runs it, without the loop.
func sloSteadyEngine(tb testing.TB, nVMs int) *Engine {
	tb.Helper()
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: nVMs, Duration: 86400, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(Config{
		Trace:      tr,
		Policy:     policy.LatencyAware{},
		Overcommit: 0.5,
		SLO:        &SLOConfig{MaxSlowdown: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.setupDeflation(); err != nil {
		tb.Fatal(err)
	}
	for i, vm := range tr.VMs {
		e.handleArrival(simEvent{at: 0, kind: evArrival, vm: vm, seq: i})
	}
	if len(e.runList) == 0 {
		tb.Fatal("no VMs admitted; sample pass would measure nothing")
	}
	return e
}

// samplePassCycle runs one metered sample at a rotating trace offset so
// utilisations (and hence published loads) actually change between
// passes — the dirty-marking edge, not just the unchanged-load fast
// path, is inside the measurement.
func samplePassCycle(e *Engine, i int) {
	e.samplePass(float64(1+i%100) * trace.SampleInterval)
}

// TestSamplePassSLOZeroAllocs is the allocation-regression guard for
// the SLO-metered sample pass: closed-form queueing math, histogram
// updates and load publication must all be allocation-free once warm,
// since this path runs once per VM per 5-minute boundary at 1M-VM
// scale. Measured on the sequential path — the sharded pass spawns its
// shard goroutines, which inherently allocate.
func TestSamplePassSLOZeroAllocs(t *testing.T) {
	e := sloSteadyEngine(t, 600)
	samplePassCycle(e, 0) // warm
	i := 1
	got := testing.AllocsPerRun(100, func() {
		samplePassCycle(e, i)
		i++
	})
	if got != 0 {
		t.Errorf("SLO sample pass allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSamplePassSLOSteadyState is the clustersim benchmark CI's
// alloc smoke watches: `-benchmem` must report 0 allocs/op or the make
// target fails the build. ns/op here is the full-cluster metering cost
// paid every 5 simulated minutes.
func BenchmarkSamplePassSLOSteadyState(b *testing.B) {
	e := sloSteadyEngine(b, 600)
	samplePassCycle(e, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samplePassCycle(e, i)
	}
}

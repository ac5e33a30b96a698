package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// sloTestConfig builds a latency-policy + SLO-metered run, the
// configuration whose new accumulators (violation counters, per-shard
// histograms, load publication) the differential suite must prove
// shard-invariant.
func sloTestConfig(tr *trace.AzureTrace, oc float64) Config {
	slo := &SLOConfig{Curve: perfmodel.Kcompile, MaxSlowdown: 2}
	return Config{
		Trace:      tr,
		Policy:     policy.LatencyAware{Curve: slo.Curve, MaxSlowdown: slo.MaxSlowdown},
		Overcommit: oc,
		SLO:        slo,
	}
}

// TestSLOEngineMatchesAcrossShards is the determinism
// guarantee for the SLO path: the per-VM queueing math runs inside the
// sharded sample pass and its partials (integer violation counters,
// per-shard histograms) merge in canonical order, so every SLO metric —
// violation seconds, rate, p99 proxy, the per-priority map — must be
// bit-for-bit identical at any shard count under either event queue,
// and identical to the brute-force reference placement path.
func TestSLOEngineMatchesAcrossShards(t *testing.T) {
	for _, kind := range []trace.Scenario{trace.ScenarioBursty, trace.ScenarioDiurnal} {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: kind, NumVMs: 400, Duration: 86400, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := sloTestConfig(tr, 0.5)
		seq, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if seq.SLOSampleSeconds == 0 {
			t.Fatalf("%v: degenerate run, no SLO samples metered", kind)
		}
		refCfg := base
		refCfg.ReferencePlacement = true
		ref, err := Run(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeScanMeters(seq), normalizeScanMeters(ref)) {
			t.Fatalf("%v: SLO run diverged from reference placement:\nseq %+v\nref %+v", kind, *seq, *ref)
		}
		for _, shards := range []int{1, 4} {
			for _, q := range eventQueues {
				t.Run(fmt.Sprintf("%v/shards=%d/queue=%s", kind, shards, q.name), func(t *testing.T) {
					cfg := base
					cfg.Shards = shards
					cfg.useHeapQueue = q.heap
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("SLO run diverged from sequential:\ngot %+v\nseq %+v", *got, *seq)
					}
				})
			}
		}
	}
}

// TestSLOMetricsPopulated sanity-checks the accounting identities on a
// metered run: rate = violations/samples, the per-priority map covers
// every level and sums to the total, and the p99 proxy is a plausible
// slowdown (>= 1) whenever anything was metered.
func TestSLOMetricsPopulated(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: 300, Duration: 86400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sloTestConfig(tr, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOSampleSeconds <= 0 {
		t.Fatal("no SLO samples metered")
	}
	if got := res.SLOViolationRate * res.SLOSampleSeconds; !almostEq(got, res.SLOViolationSeconds) {
		t.Errorf("rate*samples = %g, want violation seconds %g", got, res.SLOViolationSeconds)
	}
	if len(res.SLOViolationsByPriority) != 4 {
		t.Errorf("per-priority map has %d levels, want all 4", len(res.SLOViolationsByPriority))
	}
	var sum float64
	for _, v := range res.SLOViolationsByPriority {
		sum += v
	}
	if !almostEq(sum, res.SLOViolationSeconds) {
		t.Errorf("per-priority violations sum to %g, want %g", sum, res.SLOViolationSeconds)
	}
	if res.SLOLatencyP99 < 1 {
		t.Errorf("p99 slowdown proxy %g < 1", res.SLOLatencyP99)
	}
}

// TestNoSLOLeavesResultUntouched pins the gating: without Config.SLO
// the run must carry zero SLO state — no metrics, no published loads —
// so pre-SLO results are reproduced exactly.
func TestNoSLOLeavesResultUntouched(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 200, Duration: 43200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOViolationSeconds != 0 || res.SLOSampleSeconds != 0 || res.SLOViolationRate != 0 ||
		res.SLOLatencyP99 != 0 || res.SLOViolationsByPriority != nil {
		t.Errorf("non-SLO run carries SLO state: %+v", res)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 {
		scale = b
	}
	return d <= 1e-9*scale
}

package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestPreemptionBaselineUnderParallelEngineConfig is the differential
// guarantee for preemption.go under the fully parallel engine
// configuration: one trace is run (a) in preemption mode and (b) in
// deflation mode, each sequentially and with intra-run shards enabled
// under either event queue, and every Result must be bit-for-bit
// identical to its sequential twin. The deflation leg exercises the sharded sample pass and the
// batched departures; the preemption leg proves the baseline is
// untouched by (and insensitive to) the parallelism knob it
// deliberately does not use. The trace is sized so the baseline actually preempts —
// otherwise the test would pass vacuously.
func TestPreemptionBaselineUnderParallelEngineConfig(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 500, Duration: 86400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePreemption, ModeDeflation} {
		base := Config{Trace: tr, Mode: mode, Policy: policy.Priority{}, Overcommit: 0.6}
		seq, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if mode == ModePreemption {
			if seq.Preemptions == 0 {
				t.Fatal("baseline run preempted nothing; the differential is vacuous")
			}
			if seq.FailureProbability <= 0 {
				t.Fatal("baseline failure probability is zero under pressure")
			}
		}
		for _, shards := range []int{2, 8} {
			for _, q := range eventQueues {
				t.Run(fmt.Sprintf("mode=%d/shards=%d/queue=%s", mode, shards, q.name), func(t *testing.T) {
					cfg := base
					cfg.Shards = shards
					cfg.useHeapQueue = q.heap
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("parallel-config run diverged from sequential:\ngot %+v\nseq %+v", *got, *seq)
					}
				})
			}
		}
	}
}

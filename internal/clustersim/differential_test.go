package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// normalizeScanMeters returns a copy of r with the two pressure-scan
// meters that legitimately differ across placement modes zeroed:
// the full-scan modes (ReferencePlacement, FullPressureScan) score
// every pool server and prune none, while the bound-pruned descent
// scores only what the bounds cannot exclude. Every other field —
// including PressuredArrivals, which is mode-invariant — must still
// match bit-for-bit, so cross-mode comparisons go through this helper
// and same-mode comparisons (shards, streaming) stay raw.
func normalizeScanMeters(r *Result) *Result {
	c := *r
	c.PressureScored = 0
	c.PressurePruned = 0
	return &c
}

// eventQueues names the engine's two event-queue implementations: the
// calendar queue (the default) and the container/heap oracle behind
// Config.useHeapQueue. Each arrival is placed as it pops, so a run's
// placement sequence is exactly the queue's (time, kind, seq) pop order
// — same-instant departures before arrivals included — and the
// differential suites run under both queues to pin that order.
var eventQueues = []struct {
	name string
	heap bool
}{{"calendar", false}, {"heap", true}}

// TestIndexedEngineMatchesReference is the end-to-end differential
// guarantee of the capacity-index refactor: full simulation runs through
// the indexed manager must produce Results — every admission count,
// failure probability, throughput-loss integral and revenue float — that
// are bit-for-bit identical to the retained brute-force reference path,
// across all synthetic scenarios, multiple seeds and overcommitment
// levels.
func TestIndexedEngineMatchesReference(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			for _, oc := range []float64{0.3, 0.6} {
				name := fmt.Sprintf("%v/seed=%d/oc=%v", kind, seed, oc)
				t.Run(name, func(t *testing.T) {
					tr, err := trace.GenerateScenario(trace.ScenarioConfig{
						Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: oc}
					idx, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.ReferencePlacement = true
					ref, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
						t.Fatalf("indexed run diverged from reference:\nindexed   %+v\nreference %+v", *idx, *ref)
					}
				})
			}
		}
	}
}

// TestShardedEngineMatchesSequentialAndReference is the sharded-engine
// determinism guarantee: one run partitioned across any number of
// shards must produce a Result — every admission count, failure
// probability, throughput-loss integral and revenue float — bit-for-bit
// identical to the fully sequential engine AND to the brute-force
// reference placement path, across scenarios, seeds and shard counts
// (including shards exceeding GOMAXPROCS).
func TestShardedEngineMatchesSequentialAndReference(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	shardCounts := []int{2, 4, 16}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5}
			seq, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			refCfg := base
			refCfg.ReferencePlacement = true
			ref, err := Run(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeScanMeters(seq), normalizeScanMeters(ref)) {
				t.Fatalf("%v/seed=%d: sequential diverged from reference:\nseq %+v\nref %+v", kind, seed, *seq, *ref)
			}
			for _, shards := range shardCounts {
				name := fmt.Sprintf("%v/seed=%d/shards=%d", kind, seed, shards)
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.Shards = shards
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("sharded run diverged from sequential:\nsharded    %+v\nsequential %+v", *got, *seq)
					}
				})
			}
		}
	}
}

// TestIndexedEngineMatchesReferencePriorityPolicy is the end-to-end
// differential under the priority policy at 50% overcommitment: the
// indexed engine's Result must equal the brute-force reference's
// bit-for-bit across scenarios and seeds, and the heap-queue run must
// equal the calendar-queue run.
func TestIndexedEngineMatchesReferencePriorityPolicy(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5}
			cal, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range eventQueues {
				t.Run(fmt.Sprintf("%v/seed=%d/queue=%s", kind, seed, q.name), func(t *testing.T) {
					cfg := base
					cfg.useHeapQueue = q.heap
					idx := cal
					if q.heap {
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if idx = got; !reflect.DeepEqual(idx, cal) {
							t.Fatalf("heap-queue run diverged from calendar:\nheap     %+v\ncalendar %+v", *idx, *cal)
						}
					}
					cfg.ReferencePlacement = true
					ref, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
						t.Fatalf("indexed run diverged from reference:\nindexed   %+v\nreference %+v", *idx, *ref)
					}
				})
			}
		}
	}
}

// TestShardedEngineMatchesSequentialPartitioned covers sharding with
// priority-partitioned pools and the deterministic policy — the
// combination where per-server passes differ most between servers —
// under either event queue.
func TestShardedEngineMatchesSequentialPartitioned(t *testing.T) {
	tr := testTrace(400)
	base := Config{Trace: tr, Policy: policy.Deterministic{}, Partitioned: true, Overcommit: 0.5}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		for _, q := range eventQueues {
			t.Run(fmt.Sprintf("shards=%d/queue=%s", shards, q.name), func(t *testing.T) {
				cfg := base
				cfg.Shards = shards
				cfg.useHeapQueue = q.heap
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("partitioned sharded run diverged:\nsharded    %+v\nsequential %+v", *got, *seq)
				}
			})
		}
	}
}

// TestIndexedEngineMatchesReferencePartitioned covers the
// priority-partitioned pools, where the index is split per partition,
// under either event queue.
func TestIndexedEngineMatchesReferencePartitioned(t *testing.T) {
	tr := testTrace(400)
	for _, q := range eventQueues {
		t.Run("queue="+q.name, func(t *testing.T) {
			cfg := Config{Trace: tr, Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5, useHeapQueue: q.heap}
			idx, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ReferencePlacement = true
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
				t.Fatalf("partitioned indexed run diverged:\nindexed   %+v\nreference %+v", *idx, *ref)
			}
		})
	}
}

// TestPressurePruningDifferential is the acceptance guarantee of the
// pressure-index tentpole: the bound-pruned under-pressure descent must
// produce Results bit-for-bit identical to the retained full linear
// scan (FullPressureScan) and to the brute-force reference path, across
// every synthetic scenario plus shocked and risk/portfolio workloads,
// and across shard counts {1,4} × both event queues in BOTH scan
// modes. The workloads must actually exercise the machinery — pressured
// arrivals AND a nonzero prune count — or the suite is vacuous.
func TestPressurePruningDifferential(t *testing.T) {
	workloads := []struct {
		name string
		cfg  func() Config
	}{
		{"diurnal", func() Config {
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5}
		}},
		{"bursty", func() Config {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioBursty, NumVMs: 400, Duration: 86400, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6}
		}},
		{"heavytail-pooled", func() Config {
			// Seed 8: heavy-tail clusters are tiny (3-5 servers), and this
			// seed is one where the per-pool bound indexes actually prune.
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioHeavyTail, NumVMs: 400, Duration: 86400, Seed: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5}
		}},
		{"shocked", func() Config {
			sc := testShockConfig(7)
			sc.Kind = trace.ShockPoisson
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: sc}
		}},
		{"risk-portfolio", func() Config {
			return riskConfig(testTrace(400))
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := w.cfg()
			pruned, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if pruned.PressuredArrivals == 0 {
				t.Fatal("no pressured arrivals — the differential is vacuous")
			}
			if pruned.PressurePruned == 0 {
				t.Fatal("bound pruning never fired — the differential is vacuous")
			}
			fullCfg := base
			fullCfg.FullPressureScan = true
			full, err := Run(fullCfg)
			if err != nil {
				t.Fatal(err)
			}
			refCfg := base
			refCfg.ReferencePlacement = true
			ref, err := Run(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.PressurePruned != 0 {
				t.Fatalf("full scan pruned %d servers, want 0", full.PressurePruned)
			}
			if full.PressureScored <= pruned.PressureScored {
				t.Fatalf("full scan scored %d <= pruned descent's %d — pruning saved nothing",
					full.PressureScored, pruned.PressureScored)
			}
			if !reflect.DeepEqual(normalizeScanMeters(pruned), normalizeScanMeters(full)) {
				t.Fatalf("pruned run diverged from full scan:\npruned %+v\nfull   %+v", *pruned, *full)
			}
			if !reflect.DeepEqual(normalizeScanMeters(full), normalizeScanMeters(ref)) {
				t.Fatalf("full scan diverged from reference:\nfull %+v\nref  %+v", *full, *ref)
			}
			for _, shards := range []int{1, 4} {
				for _, q := range eventQueues {
					t.Run(fmt.Sprintf("shards=%d/queue=%s", shards, q.name), func(t *testing.T) {
						cfg := base
						cfg.Shards = shards
						cfg.useHeapQueue = q.heap
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						// Raw comparison: the pruned meters themselves are
						// shard- and queue-invariant.
						if !reflect.DeepEqual(got, pruned) {
							t.Fatalf("pruned run diverged from sequential:\ngot %+v\nseq %+v", *got, *pruned)
						}
						cfg.FullPressureScan = true
						gotFull, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotFull, full) {
							t.Fatalf("full-scan run diverged from sequential full scan:\ngot %+v\nseq %+v", *gotFull, *full)
						}
					})
				}
			}
		})
	}
}

// TestIndexedSweepMatchesReferenceAtAnyWorkerCount closes the loop with
// the sweep layer: a parallel indexed sweep must equal a sequential
// reference sweep — the index must not introduce any worker-count or
// scheduling sensitivity.
func TestIndexedSweepMatchesReferenceAtAnyWorkerCount(t *testing.T) {
	tr := testTrace(250)
	strategies := []string{StrategyProportional, StrategyPriority}
	ocs := []float64{0, 40}

	runSweep := func(workers int, reference bool) []*SweepResult {
		t.Helper()
		baseline, err := BaselineServerCount(tr, DefaultServerCapacity())
		if err != nil {
			t.Fatal(err)
		}
		nOC := len(ocs)
		points := make([]SweepPoint, len(strategies)*nOC)
		errs := make([]error, len(points))
		runJobs(len(points), Options{Workers: workers}.workers(len(points)), func(i int) {
			cfg := strategyConfig(tr, strategies[i/nOC], baseline, ocs[i%nOC]/100)
			cfg.ReferencePlacement = reference
			res, err := Run(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			points[i] = SweepPoint{
				OvercommitPct:      ocs[i%nOC],
				FailureProbability: res.FailureProbability,
				ThroughputLossPct:  res.ThroughputLoss * 100,
				Revenue:            res.Revenue,
				Servers:            res.Servers,
			}
		})
		if err := firstError(errs); err != nil {
			t.Fatal(err)
		}
		out := make([]*SweepResult, len(strategies))
		for si, s := range strategies {
			out[si] = &SweepResult{Strategy: s, Points: points[si*nOC : (si+1)*nOC : (si+1)*nOC]}
		}
		return out
	}

	indexedPar := runSweep(8, false)
	referenceSeq := runSweep(1, true)
	if !reflect.DeepEqual(indexedPar, referenceSeq) {
		t.Fatalf("parallel indexed sweep diverged from sequential reference sweep:\n%+v\n%+v",
			dump(indexedPar), dump(referenceSeq))
	}
}

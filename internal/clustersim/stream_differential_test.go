package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestStreamedEngineMatchesEager is the streaming tentpole's end-to-end
// guarantee: a run driven by a trace.Stream — parameters generated at
// arrival, utilisation synthesized through cursors, arrivals never
// materialised into the queue — produces a Result bit-for-bit identical
// to running the materialised form of the same stream, across all four
// scenarios, seeds, shard counts and both event queues (streamed
// arrivals feed the queue lazily, eager ones are seeded up front).
func TestStreamedEngineMatchesEager(t *testing.T) {
	for _, kind := range trace.Scenarios() {
		for _, seed := range []int64{1, 2} {
			scfg := trace.ScenarioConfig{Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed}
			s, err := trace.NewStream(scfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Materialize()
			for _, shards := range []int{1, 4} {
				for _, q := range eventQueues {
					name := fmt.Sprintf("%v/seed=%d/shards=%d/queue=%s", kind, seed, shards, q.name)
					t.Run(name, func(t *testing.T) {
						base := Config{
							Policy:       policy.Priority{},
							Overcommit:   0.5,
							Shards:       shards,
							useHeapQueue: q.heap,
						}
						eagerCfg := base
						eagerCfg.Trace = tr
						eager, err := Run(eagerCfg)
						if err != nil {
							t.Fatal(err)
						}
						streamCfg := base
						streamCfg.Stream = s
						streamed, err := Run(streamCfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(streamed, eager) {
							t.Fatalf("streamed run diverged from eager:\nstreamed %+v\neager    %+v", *streamed, *eager)
						}
					})
				}
			}
		}
	}
}

// TestStreamedEngineMatchesEagerFullFeatures drives the whole surface
// at once — priority partitioning, SLO metering, Poisson capacity
// shocks (revocations force evacuation and remaining-demand kills) and
// sharded sampling — and still requires bit-for-bit Result equality
// between the streamed and eager forms, under either event queue.
func TestStreamedEngineMatchesEagerFullFeatures(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: 500, Duration: 2 * 86400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	for _, q := range eventQueues {
		t.Run("queue="+q.name, func(t *testing.T) {
			base := Config{
				Policy:       policy.Priority{},
				Partitioned:  true,
				Overcommit:   0.4,
				Shards:       4,
				SLO:          &SLOConfig{},
				ShockConfig:  testShockConfig(11),
				useHeapQueue: q.heap,
			}
			eagerCfg := base
			eagerCfg.Trace = tr
			eager, err := Run(eagerCfg)
			if err != nil {
				t.Fatal(err)
			}
			if eager.Revocations == 0 || eager.SLOSampleSeconds == 0 {
				t.Fatalf("test premise broken: want shocks and SLO samples, got %+v", *eager)
			}
			streamCfg := base
			streamCfg.Stream = s
			streamed, err := Run(streamCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, eager) {
				t.Fatalf("streamed full-feature run diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
			}
		})
	}
}

// TestStreamedBaselineSizingMatchesEager: with BaselineServers unset,
// the streamed engine derives the cluster size through the geometry
// merge walk (streamBaselineServerCount) and must land on the same
// count — and the same Result — as the eager bound.
func TestStreamedBaselineSizingMatchesEager(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioHeavyTail, NumVMs: 300, Duration: 86400, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	eager, err := Run(Config{Trace: tr, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Run(Config{Stream: s, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("self-sized streamed run diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
}

// TestCalendarQueueMatchesHeapFullRuns closes the loop on the calendar
// queue at the engine level: full runs (eager and streamed) with the
// heap forced must equal the calendar-backed default bit for bit.
func TestCalendarQueueMatchesHeapFullRuns(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 400, Duration: 86400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	for _, mode := range []string{"eager", "streamed"} {
		cfg := Config{Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(7)}
		if mode == "eager" {
			cfg.Trace = tr
		} else {
			cfg.Stream = s
		}
		cal, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.useHeapQueue = true
		hp, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cal, hp) {
			t.Fatalf("%s: calendar run diverged from heap:\ncalendar %+v\nheap     %+v", mode, *cal, *hp)
		}
	}
}

// TestSweepGridStreamMatchesEager: the sweep layer over a stream — the
// deflationsim -stream path — equals SweepGrid over the materialised
// trace at every strategy × overcommitment point, including the
// self-derived baseline cluster size.
func TestSweepGridStreamMatchesEager(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 300, Duration: 86400, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{StrategyProportional, StrategyLatency}
	ocs := []float64{0, 30, 50}
	eager, err := SweepGrid(s.Materialize(), strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := SweepGridStream(s, strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed sweep diverged:\nstreamed %+v\neager    %+v", streamed, eager)
	}
	if _, err := SweepGridStream(s, []string{StrategyPreemption}, ocs, Options{}); err == nil {
		t.Error("preemption over a streamed sweep: want error")
	}
}

// TestStreamConfigValidation pins the Config surface: Trace and Stream
// are mutually exclusive, a stream is required to be non-empty, and the
// preemption baseline rejects streams (it needs whole-trace lookahead).
func TestStreamConfigValidation(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 10, Duration: 86400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Stream: s, Trace: s.Materialize()}); err == nil {
		t.Error("Trace+Stream together: want error")
	}
	if _, err := Run(Config{Stream: s, Mode: ModePreemption}); err == nil {
		t.Error("preemption over a stream: want error")
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("neither Trace nor Stream: want error")
	}
}

// TestStreamedTimingsPopulated: a streamed run with Timings wired
// reports nonzero phase wall time without perturbing the Result.
func TestStreamedTimingsPopulated(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 300, Duration: 86400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Stream: s, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var pt PhaseTimings
	timed, err := Run(Config{Stream: s, Overcommit: 0.5, Timings: &pt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, timed) {
		t.Fatalf("timing collection changed the Result:\nplain %+v\ntimed %+v", *plain, *timed)
	}
	if pt.Commit <= 0 || pt.Sample <= 0 {
		t.Fatalf("expected nonzero commit/sample timings, got %+v", pt)
	}
	if pt.Propose != 0 {
		t.Fatalf("Propose = %v, want always zero (no proposal phase)", pt.Propose)
	}
}

package main

import (
	"fmt"
	"time"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// workload is one named benchmark input: a trace generator with its
// size, and the engine knobs it runs under. Only the seed varies
// between runs of a workload.
type workload struct {
	name     string
	scenario trace.Scenario
	vms      int
	// streamed selects the lazily generated trace.Stream input; false
	// materialises the same trace eagerly (clustersim.Config.Trace).
	streamed   bool
	overcommit float64
	policy     policy.Policy
	slo        *clustersim.SLOConfig
	// shocks, when set, generates a capacity-shock schedule seeded from
	// the workload seed.
	shocks    *trace.ShockConfig
	portfolio []clustersim.ServerType
	risk      *clustersim.RiskOptions
}

// traceDays is every workload's trace horizon.
const traceDays = 3

// workloads is the benchmark's workload table; BENCHMARK.json names the
// same three, and README.md says why each was chosen.
var workloads = []workload{
	{
		name:     "heavytail-pressure",
		scenario: trace.ScenarioHeavyTail, vms: 200000, streamed: true,
		overcommit: 0.5, policy: policy.Proportional{},
	},
	{
		name:     "bursty-wide-slo",
		scenario: trace.ScenarioBursty, vms: 80000,
		overcommit: 0.3, policy: policy.LatencyAware{MaxSlowdown: 2},
		slo: &clustersim.SLOConfig{MaxSlowdown: 2},
	},
	{
		name:     "diurnal-rack-risk",
		scenario: trace.ScenarioDiurnal, vms: 80000, streamed: true,
		overcommit: 0.3, policy: policy.Priority{},
		shocks: &trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 2 * 3600},
		portfolio: []clustersim.ServerType{
			{Name: "stable", Fraction: 0.5, CapacityScale: 1, PriceFactor: 1, ShockRateScale: 0.05},
			{Name: "spot", Fraction: 0.5, CapacityScale: 0.5, PriceFactor: 0.35, ShockRateScale: 2},
		},
		risk: &clustersim.RiskOptions{HighPriority: 0.75, Bands: 4, HeadroomScale: 0.5},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload at vms VMs, for the reference-placement
// cut and the tests' tiny runs.
func (w workload) scaled(vms int) workload {
	w.vms = vms
	return w
}

// input is one generated trace in both forms the benchmark needs: the
// stream every replay reads, and the materialised trace eager workloads
// hand the engine. The eager trace is stream.Materialize(), so both
// describe the same VMs bit for bit.
type input struct {
	stream *trace.Stream
	eager  *trace.AzureTrace
	base   int // no-overcommit baseline server count
}

// setup is one timed set-up: trace generation, baseline sizing with
// clustersim.PeakServerLowerBound[Stream] and clustersim.NewEngine.
type setup struct {
	in       input
	cfg      clustersim.Config
	engine   *clustersim.Engine
	genDur   time.Duration
	sizeDur  time.Duration
	totalDur time.Duration
}

// config returns the engine configuration of w over in. It sets no
// parallel knob (Shards, PlacementPartitions), so the engine runs its
// sequential defaults.
func (w workload) config(in input, seed int64) clustersim.Config {
	cfg := clustersim.Config{
		Overcommit:      w.overcommit,
		BaselineServers: in.base,
		Policy:          w.policy,
		SLO:             w.slo,
		Portfolio:       w.portfolio,
		Risk:            w.risk,
	}
	if w.streamed {
		cfg.Stream = in.stream
	} else {
		cfg.Trace = in.eager
	}
	if w.shocks != nil {
		sc := *w.shocks
		sc.Seed = seed
		cfg.ShockConfig = &sc
	}
	return cfg
}

func (w workload) newSetup(seed int64) (*setup, error) {
	t0 := time.Now()
	s, err := trace.NewStream(trace.ScenarioConfig{Kind: w.scenario, NumVMs: w.vms, Duration: traceDays * 86400, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := input{stream: s}
	if !w.streamed {
		in.eager = s.Materialize()
	}
	t1 := time.Now()
	capacity := clustersim.DefaultServerCapacity()
	if w.streamed {
		in.base, err = clustersim.PeakServerLowerBoundStream(s, capacity)
	} else {
		in.base, err = clustersim.PeakServerLowerBound(in.eager, capacity)
	}
	if err != nil {
		return nil, fmt.Errorf("sizing %s: %w", w.name, err)
	}
	t2 := time.Now()
	cfg := w.config(in, seed)
	eng, err := clustersim.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine for %s: %w", w.name, err)
	}
	t3 := time.Now()
	return &setup{in: in, cfg: cfg, engine: eng, genDur: t1.Sub(t0), sizeDur: t2.Sub(t1), totalDur: t3.Sub(t0)}, nil
}

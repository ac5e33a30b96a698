package clustersim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// testTrace builds a small but non-trivial Azure-like trace.
func testTrace(nVMs int) *trace.AzureTrace {
	cfg := trace.DefaultAzureConfig()
	cfg.NumVMs = nVMs
	cfg.Duration = 2 * 86400
	return trace.GenerateAzure(cfg)
}

// TestZeroLifetimeVMFreesCapacityForSameInstantArrivals pins the
// departures-before-arrivals invariant at one instant: a zero-lifetime
// VM (End == Start, possible only in hand-written CSV traces) pushes
// its departure at its own arrival instant, and that departure must
// free its capacity before the arrivals still queued at the same
// instant are placed. Both event queues must pop in that order.
func TestZeroLifetimeVMFreesCapacityForSameInstantArrivals(t *testing.T) {
	util := []float64{50, 50}
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "vm-a", Class: trace.Unknown, Cores: 48, MemoryMB: 131072, Start: 0, End: 0, CPUUtil: util},
		{ID: "vm-b", Class: trace.Unknown, Cores: 48, MemoryMB: 131072, Start: 0, End: 3600, CPUUtil: util},
	}}
	for _, q := range eventQueues {
		t.Run("queue="+q.name, func(t *testing.T) {
			res, err := Run(Config{Trace: tr, BaselineServers: 1, useHeapQueue: q.heap})
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted != 2 || res.Rejected != 0 {
				t.Fatalf("admitted %d rejected %d; want the zero-lifetime VM's capacity freed for the same-instant arrival (2 admitted)",
					res.Admitted, res.Rejected)
			}
		})
	}
}

func TestBaselineServerCount(t *testing.T) {
	tr := testTrace(300)
	n, err := BaselineServerCount(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("baseline servers = %d", n)
	}
	// Running at that size with no overcommitment must yield zero
	// failures for every deflation policy.
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, BaselineServers: n})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("baseline cluster rejected %d VMs", res.Rejected)
	}
	if res.FailureProbability != 0 {
		t.Errorf("baseline failure probability = %v", res.FailureProbability)
	}
}

// TestRunValidation: malformed configs are rejected with an error
// before any simulation state is built. Unchecked, a non-finite
// overcommit would silently size a 1-server cluster, and a NaN
// portfolio fraction would panic indexing an empty type assignment.
func TestRunValidation(t *testing.T) {
	tr := testTrace(10)
	s, err := trace.NewStream(trace.ScenarioConfig{Kind: trace.ScenarioAzure, NumVMs: 2000, Duration: 86400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	portfolio := func(mut func(*ServerType)) []ServerType {
		p := []ServerType{{Name: "stable", Fraction: 1}, {Name: "spot", Fraction: 1}}
		mut(&p[1])
		return p
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"negative overcommit", Config{Trace: tr, Overcommit: -0.5}},
		{"NaN overcommit", Config{Trace: tr, Overcommit: nan}},
		{"+Inf overcommit", Config{Trace: tr, Overcommit: inf}},
		{"NaN overcommit, streamed", Config{Stream: s, Overcommit: nan}},
		{"+Inf overcommit, streamed", Config{Stream: s, Overcommit: inf}},
		{"NaN fraction", Config{Stream: s, Portfolio: portfolio(func(t *ServerType) { t.Fraction = nan })}},
		{"+Inf fraction", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.Fraction = inf })}},
		{"NaN capacity scale", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.CapacityScale = nan })}},
		{"+Inf capacity scale", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.CapacityScale = inf })}},
		{"NaN price factor", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.PriceFactor = nan })}},
		{"+Inf price factor", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.PriceFactor = inf })}},
		{"NaN shock rate scale", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.ShockRateScale = nan })}},
		{"+Inf shock rate scale", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.ShockRateScale = inf })}},
		{"negative price factor", Config{Trace: tr, Portfolio: portfolio(func(t *ServerType) { t.PriceFactor = -1 })}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if res, err := Run(c.cfg); err == nil {
				t.Errorf("want an error, got a run on %d servers", res.Servers)
			}
		})
	}
}

func TestDeflationAbsorbsOvercommit(t *testing.T) {
	tr := testTrace(400)
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 400 {
		t.Errorf("arrivals = %d", res.Arrivals)
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		t.Errorf("admission bookkeeping: %d + %d != %d", res.Admitted, res.Rejected, res.Arrivals)
	}
	// The headline: at 50% overcommitment deflation keeps failure
	// probability very low and throughput loss around or below 1%.
	if res.FailureProbability > 0.05 {
		t.Errorf("failure probability at 50%% OC = %v, want < 0.05 (paper <0.01)", res.FailureProbability)
	}
	if res.ThroughputLoss > 0.05 {
		t.Errorf("throughput loss at 50%% OC = %v, want small (paper ~1%%)", res.ThroughputLoss)
	}
	if res.Revenue["static"] <= 0 {
		t.Error("static revenue should be positive")
	}
}

func TestPreemptionBaselineWorse(t *testing.T) {
	tr := testTrace(400)
	defl, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(Config{Trace: tr, Mode: ModePreemption, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pre.FailureProbability <= defl.FailureProbability {
		t.Errorf("preemption failure prob %v should exceed deflation %v",
			pre.FailureProbability, defl.FailureProbability)
	}
	if pre.Preemptions == 0 {
		t.Error("expected preemptions at 50% overcommitment")
	}
}

func TestFailureProbabilityGrowsWithOvercommit(t *testing.T) {
	tr := testTrace(400)
	var prev float64 = -1
	for _, oc := range []float64{0, 0.4, 0.8} {
		res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: oc})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailureProbability < prev-0.02 {
			t.Errorf("failure probability should not materially decrease with OC: %v after %v", res.FailureProbability, prev)
		}
		prev = res.FailureProbability
	}
}

func TestThroughputLossOrdering(t *testing.T) {
	tr := testTrace(400)
	// Priority-aware policies protect high-utilisation VMs, so their
	// throughput loss should not exceed plain proportional's by much;
	// deterministic should be the lowest (Section 7.4.2).
	prop, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	det, err := Run(Config{Trace: tr, Policy: policy.Deterministic{}, Overcommit: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if det.ThroughputLoss > prop.ThroughputLoss*1.5+0.01 {
		t.Errorf("deterministic loss %v should not dwarf proportional %v",
			det.ThroughputLoss, prop.ThroughputLoss)
	}
}

func TestPartitionedRuns(t *testing.T) {
	tr := testTrace(300)
	res, err := Run(Config{
		Trace:       tr,
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Error("partitioned cluster admitted nothing")
	}
}

func TestRevenueSchemes(t *testing.T) {
	tr := testTrace(300)
	res, err := Run(Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	st, pr, al := res.Revenue["static"], res.Revenue["priority"], res.Revenue["allocation"]
	if st <= 0 || pr <= 0 || al <= 0 {
		t.Fatalf("revenues = %v", res.Revenue)
	}
	// Priority pricing charges more than the 0.2x static discount on
	// average (priority levels are 0.25..1.0).
	if pr <= st {
		t.Errorf("priority revenue %v should exceed static %v", pr, st)
	}
	// Allocation-based never exceeds static (same discount, allocation
	// <= nominal size).
	if al > st*1.0001 {
		t.Errorf("allocation revenue %v should not exceed static %v", al, st)
	}
}

func TestSweepAndRevenueIncrease(t *testing.T) {
	tr := testTrace(250)
	sr, err := Sweep(tr, StrategyProportional, []float64{0, 40})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Strategy != StrategyProportional || len(sr.Points) != 2 {
		t.Fatalf("sweep = %+v", sr)
	}
	inc := RevenueIncrease(sr, "static")
	if len(inc) != 2 || inc[0] != 0 {
		t.Errorf("revenue increase = %v (first point must be 0)", inc)
	}
	// More overcommitment packs more deflatable VMs onto fewer servers:
	// static revenue (per admitted VM-hour) should not decrease.
	if inc[1] < -1 {
		t.Errorf("static revenue increase at 40%% OC = %v, want >= 0", inc[1])
	}
	if RevenueIncrease(&SweepResult{}, "static") != nil {
		t.Error("empty sweep increase should be nil")
	}
}

func TestSweepStrategies(t *testing.T) {
	tr := testTrace(150)
	for _, s := range []string{StrategyPriority, StrategyDeterministic, StrategyPartitioned, StrategyPreemption} {
		sr, err := Sweep(tr, s, []float64{30})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(sr.Points) != 1 {
			t.Fatalf("%s: points = %d", s, len(sr.Points))
		}
	}
}

func TestServersNeverOverAllocated(t *testing.T) {
	tr := testTrace(300)
	cfg := Config{Trace: tr, Policy: policy.Priority{}, Mechanism: mechanism.Hybrid{}, Overcommit: 0.7}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestVMSizeVector(t *testing.T) {
	vm := &trace.VMRecord{Cores: 4, MemoryMB: 8192}
	if got := vmSize(vm); got != resources.CPUMem(4, 8192) {
		t.Errorf("vmSize = %v", got)
	}
}

// refEvent and refEventOrder are the independent oracle for the
// geometry's merge walk: every arrival and departure of a materialised
// trace, sorted outright by (time, departures-first, trace index).
type refEvent struct {
	at      float64
	arrival bool
	idx     int
}

func refEventOrder(tr *trace.AzureTrace) []refEvent {
	evs := make([]refEvent, 0, 2*len(tr.VMs))
	for i, vm := range tr.VMs {
		evs = append(evs, refEvent{vm.Start, true, i}, refEvent{vm.End, false, i})
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.arrival != y.arrival {
			return !x.arrival
		}
		return x.idx < y.idx
	})
	return evs
}

// walkEvents collects the geometry's merge walk over a source.
func walkEvents(t *testing.T, src vmSource) []refEvent {
	t.Helper()
	g, err := newGeometry(src, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []refEvent
	g.forEachEvent(func(idx int32, arrival bool) bool {
		vm := src.record(int(idx))
		at := vm.End
		if arrival {
			at = vm.Start
		}
		got = append(got, refEvent{at, arrival, int(idx)})
		return true
	})
	return got
}

// TestForEachEventOrdering pins the one merge walk the bounds and the
// pool planner replay: departures before arrivals at an instant, trace
// index within a kind, matched against the outright sort on a
// hand-built trace with ties and on a generated one.
func TestForEachEventOrdering(t *testing.T) {
	util := []float64{50}
	hand := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "a", Cores: 1, MemoryMB: 1024, Start: 0, End: 100, CPUUtil: util},
		{ID: "b", Cores: 1, MemoryMB: 1024, Start: 100, End: 200, CPUUtil: util},
		{ID: "c", Cores: 1, MemoryMB: 1024, Start: 100, End: 100, CPUUtil: util},
		{ID: "d", Cores: 1, MemoryMB: 1024, Start: 0, End: 200, CPUUtil: util},
	}}
	got := walkEvents(t, traceSource{hand.VMs})
	// At t=100, a's departure (and zero-lifetime c's) precede b's and
	// c's arrivals.
	want := []refEvent{{0, true, 0}, {0, true, 3}, {100, false, 0}, {100, false, 2},
		{100, true, 1}, {100, true, 2}, {200, false, 1}, {200, false, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hand trace walk = %v, want %v", got, want)
	}
	for _, tr := range []*trace.AzureTrace{hand, testTrace(250)} {
		if got, want := walkEvents(t, traceSource{tr.VMs}), refEventOrder(tr); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-VM trace: merge walk diverges from the outright sort", len(tr.VMs))
		}
	}
}

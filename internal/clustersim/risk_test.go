package clustersim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// testPortfolio is a two-type transient mix: a small slice of stable
// full-price servers and a larger slice of cheap, revocation-heavy
// ones. The 100x hazard spread spreads servers across the band range
// and gives the risk model real reserves to work with.
func testPortfolio() []ServerType {
	return []ServerType{
		{Name: "stable", Fraction: 1, PriceFactor: 1, ShockRateScale: 0.02},
		{Name: "spot", Fraction: 2, PriceFactor: 0.4, ShockRateScale: 2},
	}
}

// TestPortfolioAssign pins the type-assignment rule: largest-remainder
// counts (exact to the rounding unit), contiguous runs in declaration
// order, zero-fraction defaults, and the nil degenerations.
func TestPortfolioAssign(t *testing.T) {
	if got := portfolioAssign(nil, 10); got != nil {
		t.Fatalf("empty portfolio assigned %v", got)
	}
	if got := portfolioAssign(testPortfolio(), 0); got != nil {
		t.Fatalf("zero servers assigned %v", got)
	}
	got := portfolioAssign(testPortfolio(), 10)
	want := []int{0, 0, 0, 1, 1, 1, 1, 1, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1:2 mix over 10 = %v, want %v", got, want)
	}
	// Zero fractions weigh 1 each: three types split 10 as 4/3/3.
	even := []ServerType{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	got = portfolioAssign(even, 10)
	counts := map[int]int{}
	last := 0
	for _, ty := range got {
		if ty < last {
			t.Fatalf("assignment %v not contiguous in declaration order", got)
		}
		last = ty
		counts[ty]++
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("even 3-way split over 10 = %v, want 4/3/3", counts)
	}
}

// riskConfig is the shared shocked, portfolio-provisioned, risk-aware
// run the differential and accounting suites drive.
func riskConfig(tr *trace.AzureTrace) Config {
	sc := testShockConfig(13)
	sc.Kind = trace.ShockRack
	return Config{
		Trace:       tr,
		Policy:      policy.Priority{},
		Overcommit:  0.4,
		ShockConfig: sc,
		Portfolio:   testPortfolio(),
		Risk:        &RiskOptions{HighPriority: 0.75, Bands: 4, HeadroomScale: 0.5},
	}
}

// Expected trade at this toy scale (6 servers, rack shocks, headroom
// 0.5): the gate trades roughly a quarter of low-priority admissions
// for half the shock kills and a quarter less displaced downtime. The
// thresholds below leave margin but the runs are fully deterministic.
const minAwareRevenueShare = 0.7

// TestRiskDifferential is the acceptance guarantee for the risk
// tentpole: a portfolio fleet with hazard-banded placement and the
// headroom admission gate active must produce bit-for-bit identical
// results across shard counts {1,4} × both event queues and against
// the brute-force reference path — and the run must actually exercise
// the new machinery (revocations AND headroom rejections), or the suite
// is vacuous.
func TestRiskDifferential(t *testing.T) {
	tr := testTrace(400)
	base := riskConfig(tr)
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Revocations == 0 {
		t.Fatal("no revocations — the differential is vacuous")
	}
	if seq.RiskRejections == 0 {
		t.Fatal("headroom gate never fired — the differential is vacuous")
	}
	if seq.RiskRejections > seq.Rejected {
		t.Fatalf("RiskRejections %d exceeds Rejected %d", seq.RiskRejections, seq.Rejected)
	}
	refCfg := base
	refCfg.ReferencePlacement = true
	ref, err := Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeScanMeters(seq), normalizeScanMeters(ref)) {
		t.Fatalf("sequential diverged from reference:\nseq %+v\nref %+v", *seq, *ref)
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
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("risk run diverged from sequential:\ngot %+v\nseq %+v", *got, *seq)
				}
			})
		}
	}
}

// TestRiskAwareDominatesRiskBlind is the paper-level claim the
// benchreport frontier gate enforces per mix: on the same workload,
// portfolio and shock schedule, risk-aware admission+placement kills
// fewer displaced VMs and accrues less displaced downtime than the
// risk-blind run, while giving up only a bounded slice of admitted
// revenue — and the provider's fleet cost is identical by construction
// (the schedule and fleet don't depend on placement).
func TestRiskAwareDominatesRiskBlind(t *testing.T) {
	tr := testTrace(400)
	aware := riskConfig(tr)
	blind := aware
	blind.Risk = nil

	ra, err := Run(aware)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(blind)
	if err != nil {
		t.Fatal(err)
	}
	if rb.RiskRejections != 0 {
		t.Fatalf("risk-blind run recorded %d risk rejections", rb.RiskRejections)
	}
	if ra.ShockKills >= rb.ShockKills {
		t.Fatalf("risk-aware kills %d >= risk-blind %d", ra.ShockKills, rb.ShockKills)
	}
	if ra.DisplacedDowntime >= rb.DisplacedDowntime {
		t.Fatalf("risk-aware downtime %g >= risk-blind %g", ra.DisplacedDowntime, rb.DisplacedDowntime)
	}
	if ra.OnDemandRevenue < minAwareRevenueShare*rb.OnDemandRevenue {
		t.Fatalf("risk-aware admitted revenue %g below %g of risk-blind %g",
			ra.OnDemandRevenue, minAwareRevenueShare, rb.OnDemandRevenue)
	}
	if math.Abs(ra.FleetCost-rb.FleetCost) > 1e-9 {
		t.Fatalf("fleet cost diverged: aware %g, blind %g", ra.FleetCost, rb.FleetCost)
	}
	if ra.FleetCost <= 0 {
		t.Fatal("FleetCost not metered")
	}
}

// TestPortfolioShapesSchedule: the portfolio's ShockRateScale really
// reaches the generator — under independent (poisson) shocks the cheap
// high-rate slice eats revocations at a multiple of the stable slice's
// rate. Counted from the generated schedule itself, with the type
// boundary recomputed exactly as the engine assigns it. (Rack shocks
// dilute the skew by construction on small fleets: a rack straddling
// the type boundary revokes its stable members at the rack's blended
// rate, and per-rack non-overlap saturates the hot racks.)
func TestPortfolioShapesSchedule(t *testing.T) {
	tr := testTrace(300)
	cfg := riskConfig(tr)
	cfg.ShockConfig.Kind = trace.ShockPoisson
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.setupDeflation(); err != nil {
		t.Fatal(err)
	}
	assign := portfolioAssign(cfg.Portfolio, eng.nServers)
	sc := *cfg.ShockConfig
	sc.Duration = 2 * 86400
	sc.RateScale = eng.rateScale
	var perType [2]int
	for _, sh := range trace.GenerateShocks(sc, eng.nServers) {
		if sh.Kind == trace.ShockRevoke {
			perType[assign[sh.Server]]++
		}
	}
	nStable := 0
	for _, ty := range assign {
		if ty == 0 {
			nStable++
		}
	}
	stableRate := float64(perType[0]) / float64(nStable)
	spotRate := float64(perType[1]) / float64(eng.nServers-nStable)
	if spotRate == 0 || spotRate < 10*stableRate {
		t.Fatalf("spot slice revokes at %.2f/server vs stable %.2f/server — want >= 10x (configured 100x)",
			spotRate, stableRate)
	}
}

// TestSameInstantRestoreRevokeRace pins the event-order contract under
// the nastiest schedule: restores and revocations sharing an instant
// with an in-flight evacuation, plus a restore+re-revoke of the same
// server at one instant (two back-to-back outages, not a dropped one).
// The restore must free its capacity before the same-instant
// revocation's evacuation places into it, on every engine
// configuration and under either event queue, bit for bit.
func TestSameInstantRestoreRevokeRace(t *testing.T) {
	tr := testTrace(350)
	h := tr.Duration()
	shocks := []trace.CapacityShock{
		{At: 0.2 * h, Kind: trace.ShockRevoke, Server: 0},
		// One instant: S0 returns, S1 and S2 go — the coalesced two-server
		// evacuation may land displaced VMs on the just-restored S0.
		{At: 0.5 * h, Kind: trace.ShockRestore, Server: 0},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 2},
		// One instant: S1 restores and is immediately revoked again — the
		// restore-before-revoke order makes this two outages.
		{At: 0.7 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.7 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 2},
	}
	base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, Shocks: shocks}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Revocations != 4 || seq.Restorations != 4 {
		t.Fatalf("processed %d revocations / %d restorations, want 4 / 4 (re-revoke replayed as a second outage)",
			seq.Revocations, seq.Restorations)
	}
	if seq.Evacuations == 0 {
		t.Fatal("schedule displaced nobody — the race is vacuous")
	}
	refCfg := base
	refCfg.ReferencePlacement = true
	ref, err := Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeScanMeters(seq), normalizeScanMeters(ref)) {
		t.Fatalf("sequential diverged from reference:\nseq %+v\nref %+v", *seq, *ref)
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
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("raced run diverged from sequential:\ngot %+v\nseq %+v", *got, *seq)
				}
			})
		}
	}
}

// TestRiskSweepThreadsThrough: the sweep layer passes portfolio and
// risk options to every grid point, and the projected points carry the
// new frontier fields.
func TestRiskSweepThreadsThrough(t *testing.T) {
	tr := testTrace(250)
	opts := Options{
		Workers:     2,
		ShockConfig: testShockConfig(9),
		Portfolio:   testPortfolio(),
		Risk:        &RiskOptions{HeadroomScale: 1.5},
	}
	results, err := SweepGrid(tr, []string{StrategyPriority}, []float64{20, 40}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range results[0].Points {
		if p.FleetCost <= 0 {
			t.Fatalf("@ %g%%: FleetCost not projected into the sweep point", p.OvercommitPct)
		}
		if p.OnDemandRevenue <= 0 {
			t.Fatalf("@ %g%%: OnDemandRevenue not projected", p.OvercommitPct)
		}
		if p.Revocations == 0 {
			t.Fatalf("@ %g%%: no revocations in a shocked sweep", p.OvercommitPct)
		}
	}
}

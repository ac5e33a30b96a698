// Package clustersim is the trace-driven discrete-event cluster
// simulator of Section 7.1.2 (the paper's ~2,000-line Python framework),
// re-implemented as a proper simulation engine on top of the full
// substrate.
//
// # Architecture
//
// The package is layered as three cooperating pieces:
//
//   - events.go — the event core: a container/heap-backed pending-event
//     queue with typed sample/departure/arrival events and a stable
//     (time, kind, trace-index) total order. Departures are scheduled
//     lazily when a VM is admitted and sample events reschedule
//     themselves, so a run never materialises and sorts the whole
//     trace's event list up front.
//   - engine.go — the Engine: one self-contained run. It owns every
//     piece of mutable state (cluster manager, running set, queue,
//     metric accumulators), which makes independent runs share-nothing
//     and therefore safe to execute concurrently. Placements flow
//     through the manager's incremental capacity index
//     (internal/cluster/capindex), and runs of same-timestamp
//     departures are coalesced into one batched removal so each
//     affected server reinflates once per instant instead of once per
//     departing VM.
//   - sweep.go — the sweep layer: a worker pool that fans strategy ×
//     overcommitment grid points (and independently seeded scenario
//     replicates) out across GOMAXPROCS cores, producing bit-for-bit
//     the same results as a sequential sweep because each point runs in
//     its own Engine and all randomness is seeded per run.
//
// # Sharded single runs
//
// The sweep layer parallelises across runs; Config.Shards parallelises
// within one run, for the single giant traces (100k-1M VMs) a sweep
// cannot split. Servers and their resident VMs are partitioned across
// shards per timestamp batch with an event-time barrier: at one event
// time, the sample metering pass fans the running set out across shards
// (each VM's meters are touched by exactly one shard), and a
// same-instant departure batch reinflates its affected servers on up to
// Shards workers (each server's policy pass runs on exactly one worker,
// against only that server's state). Determinism holds at any shard
// count because no floating-point accumulation crosses shards: per-VM
// and per-server results are computed in isolation and merged in a
// canonical order — demand/loss integrals per VM then summed in
// departure (time, trace-index) order, notification events published in
// (time, first-touched server, VM name) order — so sharded == sequential
// == reference placement bit for bit, proven by the differential suite.
//
// Arrival placement is not sharded: each decision reads the capacity
// state every previous decision wrote, so arrivals are placed one at a
// time, in the queue's (time, kind, trace-index) order, as they pop.
//
// VM records from an Azure-like trace (or one of the synthetic
// scenario generators in internal/trace: diurnal, bursty/flash-crowd,
// heavy-tail) arrive and depart on their trace timestamps, are placed
// by the cluster manager (cosine-fitness placement, Section 5.2),
// deflated by the configured server-level policy and mechanism, and
// reinflate as capacity frees. The simulator measures the three
// cluster-level outcomes of Section 7.4:
//
//   - failure probability (Figure 20): for deflation policies, the
//     probability that a reclamation attempt cannot free enough
//     resources; for the preemption baseline, the probability that a
//     low-priority VM is preempted;
//   - throughput loss (Figure 21): demand above the deflated allocation
//     integrated over time (the Figure 4 area), relative to total demand;
//   - revenue from deflatable VMs (Figure 22) under the three pricing
//     schemes of Section 5.2.2.
//
// Per the paper, interactive VMs are deflatable and batch/unknown VMs
// are on-demand, which makes roughly half the VMs deflatable; priorities
// come from the 95th-percentile CPU utilisation quantised to four
// levels.
package clustersim

import (
	"fmt"
	"math"
	"time"

	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// SLOConfig enables request-latency SLO metering. At every 5-minute
// sample the engine maps each deflatable VM's offered load (from its
// utilisation trace) and current allocation to a request-slowdown ratio
// through the closed-form processor-sharing model
// (queueing.PSSlowdownRatio) composed with the application's
// deflation-response curve — the same model the latency-aware policy
// plans against — and accumulates violation time, a slowdown histogram
// and per-priority violation seconds into the Result. The engine also
// publishes each VM's sampled load to its domain
// (Domain.SetOfferedLoad), which is what makes the latency-aware policy
// load-sensitive. Publishing is view-only: it refreshes the Load the
// host's deflatable view hands the policy, marks no server dirty and
// re-keys no index, so the sample pass adds no placement-state work.
// Without an SLOConfig loads stay zero and runs are bit-for-bit
// identical to pre-SLO builds.
type SLOConfig struct {
	// Curve maps deflation to retained performance for the effective
	// service rate. The zero value means the worst-case linear curve.
	Curve perfmodel.Curve
	// MaxSlowdown is the violation threshold: a sample violates the SLO
	// when its modelled sojourn-time ratio versus the undeflated VM
	// exceeds this. Values below 1 select policy.DefaultMaxSlowdown.
	MaxSlowdown float64
}

// ServerType describes one slice of a portfolio fleet (Config.Portfolio):
// a transient-server market segment with its own price, size and
// revocation behaviour. Zero-valued numeric fields default to 1, so the
// zero ServerType is an ordinary on-demand-priced, base-capacity,
// base-hazard server; use a small positive ShockRateScale (not 0) for a
// near-revocation-immune type.
type ServerType struct {
	// Name labels the type in reports.
	Name string
	// Fraction is the type's relative weight in the fleet mix. Weights
	// are normalised across the portfolio; servers are apportioned by
	// largest-remainder rounding, so counts are exact to ±1.
	Fraction float64
	// CapacityScale multiplies Config.ServerCapacity for this type.
	CapacityScale float64
	// PriceFactor multiplies the per-core-hour fleet cost rate
	// (Result.FleetCost) — cheap transient capacity has PriceFactor < 1.
	PriceFactor float64
	// ShockRateScale multiplies the type's revocation rate in the
	// generated shock schedule (trace.ShockConfig.RateScale) and,
	// through the same parameter, in the analytic hazard model.
	ShockRateScale float64
}

// RiskOptions configures revocation-risk forecasting (Config.Risk).
type RiskOptions struct {
	// HighPriority is the priority threshold at or above which VMs get
	// hazard-banded placement (cluster.RiskConfig.HighPriority);
	// non-positive selects the cluster default (0.75).
	HighPriority float64
	// Bands is the number of hazard bands (cluster.RiskConfig.MaxBands);
	// non-positive selects the cluster default (4).
	Bands int
	// HeadroomScale multiplies each server's forecast outage fraction to
	// set its admission-headroom reserve; 0 defaults to 1, and the
	// product is clamped to 1. Larger values trade admitted revenue for
	// fewer shock kills.
	HeadroomScale float64
}

// Mode selects the resource-reclamation strategy under test.
type Mode int

const (
	// ModeDeflation reclaims resources with the configured policy.
	ModeDeflation Mode = iota
	// ModePreemption is the baseline: no deflation; low-priority VMs are
	// killed to make room under pressure (today's transient servers).
	ModePreemption
)

// PhaseTimings breaks one run's wall time down by engine phase. All
// fields are cumulative across the run. Timings live here — reached
// through Config.Timings — rather than in Result, because Result is
// compared with reflect.DeepEqual by the differential suites and wall
// times are the one legitimately nondeterministic output.
type PhaseTimings struct {
	// Propose is always zero: placement has no separate proposal phase.
	// The field remains only so existing readers keep compiling.
	Propose time.Duration
	// Commit is the arrival and evacuation placement time.
	Commit time.Duration
	// Sample is the per-interval metering pass over the running set.
	Sample time.Duration
	// Reinflate is the departure/evacuation-driven reinflation passes.
	Reinflate time.Duration
	// Surplus and Pressure further attribute the placement work inside
	// Commit: the surplus-index lookups and the under-pressure candidate
	// scans. Both are subsets of Commit, not additional wall time.
	Surplus  time.Duration
	Pressure time.Duration
}

// Config parameterises one simulation run.
type Config struct {
	// Trace supplies VM arrivals, sizes, classes and utilisation. The
	// trace is treated as immutable: concurrent engines may share one.
	// Exactly one of Trace and Stream must be set.
	Trace *trace.AzureTrace
	// Stream supplies the same trace lazily: per-VM parameters are
	// generated when the simulation reaches each arrival and
	// utilisation samples are synthesized on demand through per-VM
	// cursors, so resident memory is O(live VMs) instead of O(trace).
	// Results are bit-for-bit identical to running the materialised
	// form of the same stream through Trace (guarded by the streamed
	// differential suite). A Stream is immutable: concurrent engines
	// may share one. Streamed runs support deflation mode only; the
	// preemption baseline needs whole-trace lookahead and keeps the
	// eager API.
	Stream *trace.Stream
	// Mode selects deflation or the preemption baseline.
	Mode Mode
	// Policy and Mechanism configure deflation (ignored for preemption).
	Policy    policy.Policy
	Mechanism mechanism.Mechanism
	// Partitioned enables priority-partitioned pools (Section 5.2.1).
	Partitioned bool
	// PriorityLevels quantises p95-derived priorities (4 in the paper).
	PriorityLevels int
	// Overcommit is the target cluster overcommitment fraction: the
	// cluster is sized to BaselineServers/(1+Overcommit).
	Overcommit float64
	// BaselineServers overrides the no-overcommitment cluster size; when
	// zero it is derived from the trace's peak committed demand.
	BaselineServers int
	// ServerCapacity is each server's size (48 CPUs / 128 GB in the
	// paper).
	ServerCapacity resources.Vector
	// PricingSchemes to meter (all three when nil).
	PricingSchemes []pricing.Scheme
	// Notify, when set, receives an event for every allocation change
	// the cluster manager makes during the run. The bus is safe to
	// share between concurrently running engines.
	Notify *notify.Bus
	// ReferencePlacement runs the cluster manager's retained brute-force
	// placement path instead of its capacity index. Results are
	// bit-for-bit identical (guarded by the differential test suite);
	// the flag exists for that comparison and for benchmarks.
	ReferencePlacement bool
	// FullPressureScan keeps the indexed surplus path but replaces the
	// bound-pruned under-pressure descent with the retained linear scan
	// over every pool server. Results are bit-for-bit identical up to
	// the pressure-scan meters (guarded by the differential suite); the
	// flag exists for that comparison and for the bench-pressure gate.
	FullPressureScan bool
	// Shards parallelises one run across up to this many goroutines:
	// the per-VM sample metering pass is partitioned across shards, and
	// the per-server reinflation passes of a same-instant departure
	// batch fan out through the cluster manager's ReinflateShards. Both
	// kinds of work are per-VM / per-server isolated and merge their
	// side effects in a canonical order (see package comment), so the
	// Result is bit-for-bit identical at any shard count — guarded by
	// the differential suite. 0 or 1 means fully sequential. Shards
	// multiply under the sweep layer's worker pool; use them for one
	// giant run, not inside a saturated sweep.
	Shards int
	// Shocks is an explicit capacity-shock schedule: revocations,
	// restorations and resizes of specific servers by provisioning
	// index. Shocks addressing servers beyond the run's provisioned
	// count are ignored, so one schedule can be replayed against
	// clusters of different sizes. In deflation mode a revoked or shrunk
	// server's VMs are deflation-first evacuated through the batch
	// placement engine; in preemption mode they die — today's transient
	// servers.
	Shocks []trace.CapacityShock
	// ShockConfig, when set and Shocks is nil, generates the schedule
	// for the run's own server count (trace.GenerateShocks) — the form
	// sweeps use, since every grid point provisions a different cluster
	// size. A zero Duration defaults to the trace horizon.
	ShockConfig *trace.ShockConfig
	// EvacuationDowntime is the modelled downtime in seconds charged to
	// each successfully evacuated VM (Result.DisplacedDowntime). It is
	// accounting only — it does not feed back into placement — and
	// defaults to 30 s.
	EvacuationDowntime float64
	// SLO, when set, meters request-latency SLO violations every sample
	// (deflation mode only) and feeds each VM's offered load to its
	// domain so latency-aware policies can read it. Nil disables both:
	// non-SLO runs carry zero loads and unchanged results.
	SLO *SLOConfig
	// Portfolio provisions the fleet as a mix of server types instead of
	// a homogeneous one (deflation mode only): each type takes its
	// largest-remainder share of the servers as a contiguous run of
	// provisioning indexes, scales ServerCapacity and the per-core fleet
	// cost by its factors, and shapes the generated shock schedule
	// through ShockConfig.RateScale. Nil keeps the homogeneous fleet and
	// bit-identical legacy runs.
	Portfolio []ServerType
	// Risk enables revocation-risk forecasting (deflation mode only):
	// the run derives an analytic hazard model from its effective shock
	// configuration (internal/risk), provisions every server with its
	// hazard band and forecast-headroom reserve fraction, and turns on
	// the cluster manager's shock-aware admission gate and hazard-banded
	// candidate order. Requires ShockConfig for the model (an explicit
	// Shocks list carries no rate parameters, so bands and reserves stay
	// zero). Nil keeps risk-blind placement.
	Risk *RiskOptions
	// Timings, when set, receives the run's per-phase wall times
	// (commit/sample/reinflate). Collection adds two clock reads per
	// timed section and is off when nil; it never influences any
	// simulated outcome.
	Timings *PhaseTimings
	// useHeapQueue forces the reference container/heap event queue
	// instead of the calendar queue. Results are identical either way
	// (the queues implement one total order); the knob exists so the
	// differential tests can prove exactly that through full runs.
	useHeapQueue bool
}

// DefaultServerCapacity is the paper's server: 48 CPUs, 128 GB RAM.
func DefaultServerCapacity() resources.Vector {
	return resources.CPUMem(48, 131072)
}

func (c *Config) applyDefaults() error {
	switch {
	case c.Stream != nil && c.Trace != nil:
		return fmt.Errorf("clustersim: set Trace or Stream, not both")
	case c.Stream != nil:
		if c.Stream.Len() == 0 {
			return fmt.Errorf("clustersim: empty trace")
		}
		if c.Mode == ModePreemption {
			return fmt.Errorf("clustersim: preemption mode requires an eager Trace (whole-trace lookahead)")
		}
	case c.Trace == nil || len(c.Trace.VMs) == 0:
		return fmt.Errorf("clustersim: empty trace")
	}
	if c.Policy == nil {
		c.Policy = policy.Proportional{}
	}
	if c.Mechanism == nil {
		c.Mechanism = mechanism.Transparent{}
	}
	if c.PriorityLevels <= 0 {
		c.PriorityLevels = 4
	}
	if c.ServerCapacity.IsZero() {
		c.ServerCapacity = DefaultServerCapacity()
	}
	if c.PricingSchemes == nil {
		c.PricingSchemes = []pricing.Scheme{
			pricing.Static{Discount: 0.2},
			pricing.Priority{},
			pricing.Allocation{Discount: 0.2},
		}
	}
	if c.Overcommit < 0 {
		return fmt.Errorf("clustersim: negative overcommit")
	}
	if !finite(c.Overcommit) {
		return fmt.Errorf("clustersim: non-finite overcommit %v", c.Overcommit)
	}
	if c.EvacuationDowntime <= 0 {
		c.EvacuationDowntime = 30
	}
	if c.SLO != nil {
		// Copy before defaulting so a caller-shared SLOConfig (sweeps
		// reuse one across grid points) is never mutated.
		slo := *c.SLO
		if slo.Curve == (perfmodel.Curve{}) {
			slo.Curve = perfmodel.WorstCaseLinear
		}
		if slo.MaxSlowdown < 1 {
			slo.MaxSlowdown = policy.DefaultMaxSlowdown
		}
		c.SLO = &slo
	}
	for _, t := range c.Portfolio {
		if t.Fraction < 0 || t.CapacityScale < 0 || t.PriceFactor < 0 || t.ShockRateScale < 0 {
			return fmt.Errorf("clustersim: negative ServerType field in portfolio (%q)", t.Name)
		}
		if !finite(t.Fraction) || !finite(t.CapacityScale) || !finite(t.PriceFactor) || !finite(t.ShockRateScale) {
			return fmt.Errorf("clustersim: non-finite ServerType field in portfolio (%q)", t.Name)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Result summarises one run.
type Result struct {
	// Servers actually provisioned.
	Servers int
	// Arrivals is the number of VM start events processed.
	Arrivals int
	// Admitted counts VMs that were placed.
	Admitted int
	// Rejected counts admission failures (deflation mode) or rejected
	// low-priority launches (preemption mode).
	Rejected int
	// ReclamationAttempts counts placements that required reclaiming
	// resources (deflation) or preempting (preemption).
	ReclamationAttempts int
	// ReclamationFailures counts attempts that could not free enough.
	ReclamationFailures int
	// Pressure-scan accounting (deflation mode). PressuredArrivals
	// counts placements that fell through to the under-pressure scan
	// (identical in every placement mode). PressureScored counts servers
	// whose exact fitness was computed across those scans and
	// PressurePruned counts indexed servers the bound-pruned descent
	// excluded without scoring — by the fitness bound, the feasibility
	// pre-filter, or an earlier candidate succeeding. The full-scan
	// modes (ReferencePlacement, FullPressureScan) score every pool
	// server and prune none, so differential suites comparing across
	// modes zero Scored/Pruned before reflect.DeepEqual.
	PressuredArrivals int
	PressureScored    int
	PressurePruned    int
	// Preemptions counts killed low-priority VMs (preemption mode).
	Preemptions int
	// DeflatableAdmitted counts admitted low-priority VMs.
	DeflatableAdmitted int
	// FailureProbability is the Figure 20 metric (see package comment).
	FailureProbability float64
	// ThroughputLoss is the Figure 21 metric: lost demand / total demand
	// across deflatable VMs.
	ThroughputLoss float64
	// Revenue maps pricing-scheme name to total revenue from deflatable
	// VMs (on-demand-core-hours).
	Revenue map[string]float64

	// Capacity-shock outcomes. Revocations/Restorations/Resizes count
	// processed shock events; Evacuations counts displaced VMs
	// successfully relocated (deflation mode only); ShockKills counts
	// displaced VMs that died — relocation failed (deflation) or the
	// server was simply taken away (preemption). DisplacedDowntime is
	// the summed modelled downtime (seconds) across evacuated VMs.
	Revocations       int
	Restorations      int
	Resizes           int
	Evacuations       int
	ShockKills        int
	DisplacedDowntime float64

	// Risk / portfolio accounting (deflation mode). RiskRejections is
	// the subset of Rejected withheld by the shock-aware admission gate
	// (forecast evacuation headroom; zero without Config.Risk).
	// FleetCost is the provider's spend: per-core in-service hours
	// weighted by each server type's PriceFactor, with revoked intervals
	// not billed — metered on every deflation run so risk-blind and
	// risk-aware runs are cost-comparable.
	RiskRejections int
	FleetCost      float64

	// Pricing accounting (deflation mode). OnDemandRevenue is what the
	// run's deflatable VMs would have billed as on-demand instances
	// (core-hours at rate 1); CostSavings maps each pricing scheme to
	// the paper's customer cost-savings fraction,
	// 1 - Revenue[scheme]/OnDemandRevenue. RevenueByPriority splits the
	// "priority" scheme's revenue by quantised priority level.
	OnDemandRevenue   float64
	CostSavings       map[string]float64
	RevenueByPriority map[int]float64

	// SLO accounting (deflation mode, only when Config.SLO is set; all
	// zero/nil otherwise). SLOViolationSeconds is the total VM-time spent
	// above the slowdown threshold; SLOSampleSeconds is the total metered
	// VM-time (deflatable VMs only), so SLOViolationRate =
	// SLOViolationSeconds/SLOSampleSeconds. SLOLatencyP99 is the
	// histogram-derived 99th-percentile slowdown proxy (bucket upper
	// edge, resolution 0.05, saturating at the top bucket).
	// SLOViolationsByPriority splits violation seconds by quantised
	// priority level, with every level present.
	SLOViolationSeconds     float64
	SLOSampleSeconds        float64
	SLOViolationRate        float64
	SLOLatencyP99           float64
	SLOViolationsByPriority map[int]float64
}

// BaselineServerCount returns the paper's "minimum cluster size capable
// of running all VMs without any preemptions or admission-controlled
// rejections": starting from the peak-aggregate-demand lower bound, the
// count grows until a full-allocation bin-packing replay of the trace
// admits every VM (fragmentation can push the answer above the
// aggregate bound). It fails if any single VM exceeds a server.
func BaselineServerCount(tr *trace.AzureTrace, serverCap resources.Vector) (int, error) {
	evs := buildEvents(tr)
	lb, err := peakLowerBound(evs, serverCap)
	if err != nil {
		return 0, err
	}
	// Fragmentation can exceed the aggregate bound, but not without
	// limit; 4x is a generous safety margin that turns a logic error
	// into a diagnosable failure instead of an unbounded search.
	for n := lb; n <= 4*lb+4; n++ {
		if fullAllocationFeasible(evs, n, serverCap) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("clustersim: no feasible packing within %d servers", 4*lb+4)
}

// PeakServerLowerBound returns the aggregate-demand lower bound on the
// cluster size: the peak concurrent committed demand divided by the
// server capacity, per dimension. It is the cheap O(N log N) part of
// BaselineServerCount — without the bin-packing feasibility replay that
// the full bound runs — and is the right cluster-sizing knob for
// 100k-VM-scale benchmarks, where the packing replay would dwarf the
// simulation being measured.
func PeakServerLowerBound(tr *trace.AzureTrace, serverCap resources.Vector) (int, error) {
	return peakLowerBound(buildEvents(tr), serverCap)
}

// peakLowerBound is the shared core of the two bounds above, taking a
// prebuilt event list so BaselineServerCount sorts the trace only once.
func peakLowerBound(evs []event, serverCap resources.Vector) (int, error) {
	var cur, peak resources.Vector
	for _, e := range evs {
		size := vmSize(e.vm)
		if e.arrival {
			if !size.FitsIn(serverCap) {
				return 0, fmt.Errorf("clustersim: VM %s (%v) exceeds server capacity %v",
					e.vm.ID, size, serverCap)
			}
			cur = cur.Add(size)
			peak = peak.Max(cur)
		} else {
			cur = cur.Sub(size)
		}
	}
	return serversForPeak(peak, serverCap), nil
}

// serversForPeak converts a peak committed-demand vector into the
// per-dimension server-count lower bound. Shared by the eager and
// streamed bounds so both round identically.
func serversForPeak(peak, serverCap resources.Vector) int {
	lb := 1
	for _, k := range resources.Kinds {
		if serverCap.Get(k) <= 0 {
			continue
		}
		need := int(math.Ceil(peak.Get(k) / serverCap.Get(k)))
		if need > lb {
			lb = need
		}
	}
	return lb
}

// fullAllocationFeasible replays the trace at full allocations on n
// servers with tightest-fit placement (minimise the chosen server's
// leftover dominant share) and reports whether every VM fits. Tightest
// fit keeps large servers whole so big VMs stay placeable — the right
// objective for a feasibility bound, as opposed to the load-balancing
// objective used for live deflation-aware placement.
func fullAllocationFeasible(evs []event, n int, serverCap resources.Vector) bool {
	free := make([]resources.Vector, n)
	for i := range free {
		free[i] = serverCap
	}
	where := make(map[string]int, len(evs)/2)
	for _, e := range evs {
		size := vmSize(e.vm)
		if !e.arrival {
			if s, ok := where[e.vm.ID]; ok {
				free[s] = free[s].Add(size)
				delete(where, e.vm.ID)
			}
			continue
		}
		best := tightestFit(free, size, serverCap)
		if best < 0 {
			return false
		}
		free[best] = free[best].Sub(size)
		where[e.vm.ID] = best
	}
	return true
}

// tightestFit returns the index of the fitting server whose leftover
// dominant share would be smallest, or -1 if none fits.
func tightestFit(free []resources.Vector, size, serverCap resources.Vector) int {
	best, bestLeft := -1, math.Inf(1)
	for i := range free {
		if !size.FitsIn(free[i]) {
			continue
		}
		left := free[i].Sub(size).DominantShare(serverCap)
		if left < bestLeft {
			best, bestLeft = i, left
		}
	}
	return best
}

func vmSize(vm *trace.VMRecord) resources.Vector {
	return resources.CPUMem(float64(vm.Cores), vm.MemoryMB)
}

// Run executes one simulation: it is shorthand for NewEngine followed
// by Engine.Run.
func Run(cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// partitionPlan assigns servers to priority pools proportionally to the
// trace's committed demand per pool ("the size of the different pools
// can be based on the typical workload mix", Section 5.2.1).
func partitionPlan(cfg Config, nServers int) []int {
	out := make([]int, nServers)
	if !cfg.Partitioned {
		return out // all zeros; ignored when partitioning is off
	}
	levels := cfg.PriorityLevels
	// Size pools by *peak concurrent* demand per level, not total
	// VM-hours: pools sized on averages run out of room at their own
	// peaks and deflate even when the cluster as a whole has slack.
	demand := make([]float64, levels)
	current := make([]float64, levels)
	levelOf := func(vm *trace.VMRecord) int {
		lvl := levels - 1 // on-demand pool
		if vm.Class == trace.Interactive {
			p := policy.PriorityFromP95(vm.P95(), levels)
			lvl = int(p*float64(levels)) - 1
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= levels {
				lvl = levels - 1
			}
		}
		return lvl
	}
	for _, e := range buildEvents(cfg.Trace) {
		lvl := levelOf(e.vm)
		if e.arrival {
			current[lvl] += float64(e.vm.Cores)
			if current[lvl] > demand[lvl] {
				demand[lvl] = current[lvl]
			}
		} else {
			current[lvl] -= float64(e.vm.Cores)
		}
	}
	return allocatePools(out, demand, nServers, levels)
}

// allocatePools fills out with per-server pool assignments sized
// proportionally to the per-level peak demand: largest-remainder
// allocation with at least one server per non-empty pool. Shared by the
// eager and streamed partition planners.
func allocatePools(out []int, demand []float64, nServers, levels int) []int {
	var total float64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		return out
	}
	counts := make([]int, levels)
	assigned := 0
	for l := 0; l < levels; l++ {
		counts[l] = int(float64(nServers) * demand[l] / total)
		if demand[l] > 0 && counts[l] == 0 {
			counts[l] = 1
		}
		assigned += counts[l]
	}
	for assigned > nServers {
		// Trim from the largest pool.
		maxL := 0
		for l := 1; l < levels; l++ {
			if counts[l] > counts[maxL] {
				maxL = l
			}
		}
		if counts[maxL] <= 1 {
			break
		}
		counts[maxL]--
		assigned--
	}
	for assigned < nServers {
		// Grow the pool with the largest demand per server.
		bestL, bestV := 0, -1.0
		for l := 0; l < levels; l++ {
			v := demand[l] / float64(counts[l]+1)
			if v > bestV {
				bestL, bestV = l, v
			}
		}
		counts[bestL]++
		assigned++
	}
	i := 0
	for l := 0; l < levels; l++ {
		for k := 0; k < counts[l] && i < nServers; k++ {
			out[i] = l
			i++
		}
	}
	return out
}

// orOne is the ServerType field default: zero means "base" (factor 1).
func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// portfolioAssign maps each provisioning index to its portfolio type:
// largest-remainder apportionment of the normalised fractions, each
// type taking a contiguous run of indexes in declaration order. Racks
// are contiguous index groups in the shock generator, so contiguous
// runs keep most racks single-typed; and being a pure function of
// (portfolio, n), every engine derives the identical fleet. Returns nil
// for an empty portfolio (homogeneous fleet).
func portfolioAssign(types []ServerType, n int) []int {
	if len(types) == 0 || n <= 0 {
		return nil
	}
	var total float64
	for _, t := range types {
		total += orOne(t.Fraction)
	}
	exact := make([]float64, len(types))
	counts := make([]int, len(types))
	assigned := 0
	for i, t := range types {
		exact[i] = float64(n) * orOne(t.Fraction) / total
		counts[i] = int(exact[i])
		assigned += counts[i]
	}
	for ; assigned < n; assigned++ {
		// Largest fractional remainder; ties to the earliest type.
		best, bestFrac := 0, -1.0
		for i := range types {
			if frac := exact[i] - float64(counts[i]); frac > bestFrac {
				best, bestFrac = i, frac
			}
		}
		counts[best]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, i)
		}
	}
	return out
}

package clustersim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/queueing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/risk"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// vmTracking is the engine's per-VM accounting record.
type vmTracking struct {
	rec    *trace.VMRecord
	domain *hypervisor.Domain
	// meters is position-indexed by Config.PricingSchemes (nil for
	// on-demand VMs). A flat slice instead of the old name-keyed map:
	// one admission used to allocate a map plus one Meter per scheme;
	// now it is a single slice allocation, and the per-sample walk is an
	// index loop instead of a map range.
	meters []pricing.Meter
	admitT float64 // admission time, for the on-demand-equivalent bill
	demand float64 // integrated demand (core-seconds)
	lost   float64 // integrated demand above allocation
	prio   float64
	// sloViol/sloSamples count this VM's SLO-violating and total metered
	// samples (Config.SLO runs only). Integer per-VM counters folded at
	// close time keep the accumulation exact and shard-order-free.
	sloViol    uint32
	sloSamples uint32
	// idx is the VM's position in the engine's running list (swap-remove
	// bookkeeping for the sharded sample pass).
	idx int
	// cur reads this VM's utilisation incrementally on streamed runs
	// (nil on eager runs, where rec.CPUUtil is materialised). Cursors
	// are recycled through the engine's free list when the VM closes.
	cur *trace.UtilCursor
}

// Engine executes one simulation run. It owns every piece of mutable
// run state — the cluster manager, the pending-event queue, the running
// set and all metric accumulators — so concurrently executing engines
// share nothing (a shared *trace.AzureTrace is read-only) and a sweep
// worker pool can run one engine per grid point without coordination.
//
// An Engine is single-use: NewEngine builds it, Run consumes it.
type Engine struct {
	cfg      Config
	nServers int
	shards   int

	// Deflation-mode state.
	mgr     *cluster.Manager
	queue   eventQueue
	running map[string]*vmTracking
	runList []*vmTracking // the running set as a slice, for sharded sampling
	res     *Result
	horizon float64

	// Streamed-trace state (nil/zero on eager runs). geo carries the
	// compact sizing view between NewEngine and setupDeflation and is
	// released before the event loop; synth serves admission-time series
	// synthesis; cursorFree recycles utilisation cursors (with their
	// embedded RNG state) across VM lifetimes — the per-run arena that
	// keeps steady-state churn allocation-light. utilBuf is the
	// admission-time P95 scratch of both input paths: the percentile
	// selection reorders it in place.
	geo        *streamGeometry
	synth      *trace.SeriesSynth
	utilBuf    []float64
	cursorFree []*trace.UtilCursor

	// sampleTime accumulates the sample passes' wall time when
	// cfg.Timings is set.
	sampleTime time.Duration

	// Capacity-shock state: the provisioned servers' names (shock
	// events address servers by index) and which of them are currently
	// revoked.
	serverNames []string
	revoked     []bool

	// Portfolio / risk provisioning state (deflation mode). baseCap and
	// rateScale are nil on homogeneous fleets: per-server provisioned
	// capacity (resize events scale it) and the per-server shock-rate
	// multipliers handed to the schedule generator. costRate is each
	// server's PriceFactor-weighted core count; outStart/outAccum meter
	// its out-of-service seconds so FleetCost bills in-service time only.
	baseCap   []resources.Vector
	rateScale []float64
	costRate  []float64
	outStart  []float64
	outAccum  []float64

	demandTotal float64
	lostTotal   float64

	// SLO accumulators (nil unless cfg.SLO is set). sloHists is one
	// slowdown histogram per shard — the sharded sample pass increments
	// only its own shard's buckets, and the integer merge at run end is
	// order-exact, so the shard count cannot perturb the distribution.
	// sloViolByLevel counts violating samples per quantised priority
	// level, folded per VM in canonical close order.
	sloHists       [][]uint64
	sloViolByLevel []uint64
	sloSampleCount uint64

	// Arrival scratch, reused across handleArrival calls: the one-VM
	// placement batch and its result buffer.
	dcBuf [1]hypervisor.DomainConfig
	plBuf []cluster.Placement
}

// minShardedSample is the running-set size below which the sample pass
// stays sequential: spawning shard goroutines for a handful of VMs
// costs more than it saves. The threshold depends only on simulation
// state, never on timing, so it cannot affect results (per-VM sampling
// is order-independent either way).
const minShardedSample = 128

// NewEngine validates cfg, resolves the baseline cluster size and
// prepares a run. The expensive BaselineServerCount bound is computed
// here (once) unless cfg.BaselineServers pins it, which sweeps do so
// that every grid point sees an identically sized cluster.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	if cfg.Stream != nil {
		// One Params pass builds the compact geometry every sizing and
		// planning step below shares; it is released before the event
		// loop starts (setupDeflation keeps only the arrival order).
		e.geo = newStreamGeometry(cfg.Stream)
	}
	base := cfg.BaselineServers
	if base <= 0 {
		var err error
		if cfg.Stream != nil {
			base, err = streamBaselineServerCount(cfg.Stream, e.geo, cfg.ServerCapacity)
		} else {
			base, err = BaselineServerCount(cfg.Trace, cfg.ServerCapacity)
		}
		if err != nil {
			return nil, err
		}
	}
	e.nServers = int(math.Ceil(float64(base) / (1 + cfg.Overcommit)))
	if e.nServers < 1 {
		e.nServers = 1
	}
	e.shards = cfg.Shards
	if e.shards < 1 {
		e.shards = 1
	}
	return e, nil
}

// Run executes the simulation and returns its metrics.
func (e *Engine) Run() (*Result, error) {
	if e.cfg.Mode == ModePreemption {
		return e.runPreemption()
	}
	return e.runDeflation()
}

// setupDeflation builds the deflation-mode run state: the cluster
// manager with its provisioned servers, the event queue seeded with the
// trace and the shock schedule, and the metric accumulators. Split from
// the event loop so white-box benchmarks can stand a populated cluster
// up and drive individual passes.
func (e *Engine) setupDeflation() error {
	cfg := e.cfg
	mgrCfg := cluster.Config{
		Policy:              cfg.Policy,
		Mechanism:           cfg.Mechanism,
		PartitionByPriority: cfg.Partitioned,
		PriorityLevels:      cfg.PriorityLevels,
		Notify:              cfg.Notify,
		ReferencePlacement:  cfg.ReferencePlacement,
		FullPressureScan:    cfg.FullPressureScan,
		ReinflateShards:     e.shards,
		CollectTimings:      cfg.Timings != nil,
	}
	if cfg.Risk != nil {
		mgrCfg.Risk = &cluster.RiskConfig{HighPriority: cfg.Risk.HighPriority, MaxBands: cfg.Risk.Bands}
	}
	e.mgr = cluster.NewManager(mgrCfg)
	var partitions []int
	if cfg.Stream != nil {
		partitions = partitionPlanStream(cfg, cfg.Stream, e.geo, e.nServers)
	} else {
		partitions = partitionPlan(cfg, e.nServers)
	}

	// Portfolio typing and the analytic hazard model. Both are pure
	// functions of config and server count, so every engine over the
	// same config provisions an identical fleet. Baseline sizing above
	// stays on the base ServerCapacity: the portfolio redistributes the
	// same nominal fleet, it does not resize it.
	typeOf := portfolioAssign(cfg.Portfolio, e.nServers)
	if typeOf != nil {
		e.baseCap = make([]resources.Vector, e.nServers)
		e.rateScale = make([]float64, e.nServers)
		for i, t := range typeOf {
			e.baseCap[i] = cfg.ServerCapacity.Scale(orOne(cfg.Portfolio[t].CapacityScale))
			e.rateScale[i] = orOne(cfg.Portfolio[t].ShockRateScale)
		}
	}
	var model *risk.Model
	bands, headroom := 0, 1.0
	if cfg.Risk != nil && cfg.Shocks == nil && cfg.ShockConfig != nil {
		sc := *cfg.ShockConfig
		sc.RateScale = e.rateScale
		model = risk.New(sc, e.nServers)
		bands = cfg.Risk.Bands
		if bands <= 0 {
			bands = 4 // keep in sync with cluster.RiskConfig's default
		}
		if cfg.Risk.HeadroomScale > 0 {
			headroom = cfg.Risk.HeadroomScale
		}
	}

	e.serverNames = make([]string, e.nServers)
	e.revoked = make([]bool, e.nServers)
	e.costRate = make([]float64, e.nServers)
	e.outStart = make([]float64, e.nServers)
	e.outAccum = make([]float64, e.nServers)
	for i := 0; i < e.nServers; i++ {
		e.serverNames[i] = fmt.Sprintf("node-%03d", i)
		capacity, price := cfg.ServerCapacity, 1.0
		if typeOf != nil {
			capacity = e.baseCap[i]
			price = orOne(cfg.Portfolio[typeOf[i]].PriceFactor)
		}
		e.costRate[i] = price * capacity.Get(resources.CPU)
		spec := cluster.ServerSpec{Name: e.serverNames[i], Capacity: capacity, Partition: partitions[i]}
		if model != nil {
			spec.Band = model.Band(i, bands)
			if f := model.OutageFraction(i) * headroom; f > 0 {
				spec.ReserveFraction = math.Min(f, 1)
			}
		}
		if _, err := e.mgr.AddServerSpec(spec); err != nil {
			return err
		}
	}

	e.res = &Result{Servers: e.nServers, Revenue: map[string]float64{}, RevenueByPriority: map[int]float64{}}
	if cfg.SLO != nil {
		e.sloHists = make([][]uint64, e.shards)
		for i := range e.sloHists {
			e.sloHists[i] = make([]uint64, sloHistBuckets)
		}
		e.sloViolByLevel = make([]uint64, cfg.PriorityLevels)
	}
	e.running = map[string]*vmTracking{}
	if cfg.Stream != nil {
		// The live-set queue holds departures, samples and shocks for
		// the currently running VMs only; arrivals stay latent in the
		// stream. Size the calendar for a modest live set — it resizes
		// itself as the population moves.
		var inner eventQueue
		if cfg.useHeapQueue {
			inner = &heapQueue{}
		} else {
			inner = newCalendarQueue(1024, e.geo.maxEnd)
		}
		e.queue = newStreamQueue(cfg.Stream, e.geo.byStart, inner)
		e.horizon = e.geo.maxEnd
		e.synth = trace.NewSeriesSynth()
		// Release the geometry: the queue owns byStart, and the other
		// four columns (~32 bytes/VM) are dead weight through the run.
		e.geo = nil
	} else {
		e.queue = newArrivalQueue(cfg.Trace, cfg.useHeapQueue)
		e.horizon = cfg.Trace.Duration()
	}
	if trace.SampleInterval <= e.horizon {
		e.queue.push(simEvent{at: trace.SampleInterval, kind: evSample})
	}
	e.pushShocks(e.queue)
	return nil
}

// runDeflation drives the deflation-mode event loop: arrivals are
// placed (deflating residents when needed), departures reinflate
// survivors, and self-rescheduling sample events meter demand, loss and
// revenue every trace.SampleInterval. At equal timestamps the queue
// delivers samples, then departures, then arrivals (see eventKind).
// With Shards > 1 the sample pass and departure-batch reinflations fan
// out across shards inside the per-timestamp barrier (see the package
// comment's sharding section).
func (e *Engine) runDeflation() (*Result, error) {
	cfg := e.cfg
	if err := e.setupDeflation(); err != nil {
		return nil, err
	}

	// Reusable scratch for departure batching, so the hot loop does not
	// allocate per event.
	var (
		batch []simEvent
		names []string
	)
	for !e.queue.empty() {
		ev := e.queue.pop()
		switch ev.kind {
		case evSample:
			if cfg.Timings != nil {
				t0 := time.Now()
				e.samplePass(ev.at)
				e.sampleTime += time.Since(t0)
			} else {
				e.samplePass(ev.at)
			}
			if next := ev.at + trace.SampleInterval; next <= e.horizon {
				e.queue.push(simEvent{at: next, kind: evSample})
			}
		case evArrival:
			// Each arrival is placed as it pops, in the queue's
			// (time, kind, seq) order. A zero-lifetime VM (End == arrival
			// instant, possible in hand-written CSV traces; the synthetic
			// generators clip lifetimes to >= SampleInterval) pushes its
			// departure at this same instant, and the departure outranks
			// the arrivals still queued there (eventKind), so its capacity
			// is freed before they are placed.
			e.handleArrival(ev)
		case evRevoke:
			// Coalesce the run of revocations sharing this timestamp —
			// a rack-sized correlated shock — into ONE multi-server
			// revocation, so every displaced VM across the whole shock
			// relocates through a single placement batch, in
			// (server order, VM name) evacuation order.
			batch = batch[:0]
			batch = append(batch, ev)
			for !e.queue.empty() {
				next := e.queue.peek()
				if next.at != ev.at || next.kind != evRevoke {
					break
				}
				batch = append(batch, e.queue.pop())
			}
			names = names[:0]
			for _, rev := range batch {
				i := rev.shock.Server
				if e.revoked[i] {
					continue // generator guards double revokes; stay safe
				}
				e.revoked[i] = true
				e.outStart[i] = rev.at
				names = append(names, e.serverNames[i])
			}
			if len(names) > 0 {
				e.res.Revocations += len(names)
				out, err := e.mgr.RevokeServers(names...)
				if err != nil {
					return nil, err
				}
				e.applyEvacuation(out, ev.at)
			}
		case evRestore:
			i := ev.shock.Server
			if e.revoked[i] {
				e.revoked[i] = false
				// Restores can land past the horizon (a late shock's outage
				// overruns it); clamp so FleetCost never bills beyond the run.
				if end := math.Min(ev.at, e.horizon); end > e.outStart[i] {
					e.outAccum[i] += end - e.outStart[i]
				}
				if err := e.mgr.RestoreServer(e.serverNames[i]); err != nil {
					return nil, err
				}
				e.res.Restorations++
			}
		case evResize:
			i := ev.shock.Server
			if !e.revoked[i] {
				capacity := cfg.ServerCapacity
				if e.baseCap != nil {
					capacity = e.baseCap[i] // resize scales the type's own size
				}
				out, err := e.mgr.ResizeServer(e.serverNames[i], capacity.Scale(ev.shock.Scale))
				if err != nil {
					return nil, err
				}
				e.res.Resizes++
				e.applyEvacuation(out, ev.at)
			}
		case evDeparture:
			// Coalesce the run of departures sharing this timestamp into
			// one batched removal: the manager reinflates each affected
			// server once instead of once per departing VM. The queue's
			// (time, kind, seq) order guarantees the batch is exactly the
			// simultaneous departures, in trace order.
			batch = batch[:0]
			batch = append(batch, ev)
			for !e.queue.empty() {
				next := e.queue.peek()
				if next.at != ev.at || next.kind != evDeparture {
					break
				}
				batch = append(batch, e.queue.pop())
			}
			names = names[:0]
			for _, dev := range batch {
				// Departures are scheduled only on admission and a VM
				// leaves the running set only here, so the lookup cannot
				// miss; it stays as a guard against future schedulers
				// (e.g. preemption-style early removal) rather than a
				// crash.
				vt, ok := e.running[dev.vm.ID]
				if !ok {
					continue
				}
				e.closeVM(vt, dev.at)
				e.dropRunning(dev.vm.ID, vt)
				names = append(names, dev.vm.ID)
			}
			if len(names) > 0 {
				if err := e.mgr.RemoveVMs(names...); err != nil {
					return nil, err
				}
			}
		}
	}
	// Defensively close any VM that somehow outlived its departure
	// event, in sorted order so accumulator arithmetic stays
	// deterministic.
	ids := make([]string, 0, len(e.running))
	for id := range e.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e.closeVM(e.running[id], e.horizon)
	}

	e.res.ReclamationFailures = e.mgr.Rejections()
	e.res.RiskRejections = e.mgr.RiskRejections()
	e.res.PressuredArrivals, e.res.PressureScored, e.res.PressurePruned = e.mgr.PressureStats()
	// FleetCost: bill each server's in-service core-hours at its type's
	// price factor, in server index order. Outage intervals accumulated
	// in event order; still-revoked servers charge out to the horizon.
	for i, rate := range e.costRate {
		out := e.outAccum[i]
		if e.revoked[i] && e.horizon > e.outStart[i] {
			out += e.horizon - e.outStart[i]
		}
		e.res.FleetCost += rate * (e.horizon - out) / 3600
	}
	if e.res.ReclamationAttempts > 0 {
		e.res.FailureProbability = float64(e.res.ReclamationFailures) / float64(e.res.ReclamationAttempts)
	}
	if e.demandTotal > 0 {
		e.res.ThroughputLoss = e.lostTotal / e.demandTotal
	}
	if e.res.OnDemandRevenue > 0 {
		e.res.CostSavings = make(map[string]float64, len(cfg.PricingSchemes))
		for _, s := range cfg.PricingSchemes {
			e.res.CostSavings[s.Name()] = 1 - e.res.Revenue[s.Name()]/e.res.OnDemandRevenue
		}
	}
	if cfg.SLO != nil {
		e.finishSLO()
	}
	if cfg.Timings != nil {
		pt := e.mgr.PhaseTimings()
		cfg.Timings.Commit += pt.Commit
		cfg.Timings.Surplus += pt.Surplus
		cfg.Timings.Pressure += pt.Pressure
		cfg.Timings.Reinflate += pt.Reinflate
		cfg.Timings.Sample += e.sampleTime
	}
	return e.res, nil
}

// sloHistBuckets and sloHistScale shape the slowdown histogram: bucket i
// covers slowdown (1 + i/scale, 1 + (i+1)/scale], so 128 buckets at
// resolution 0.05 track slowdowns up to 7.4x before saturating —
// comfortably past any plausible SLO threshold.
const (
	sloHistBuckets = 128
	sloHistScale   = 20
	// sloSlowdownCap bounds the modelled slowdown for metering: far past
	// every threshold and histogram bucket, yet small enough that the
	// bucket-index conversion to int stays well-defined.
	sloSlowdownCap = 1e6
)

// finishSLO folds the integer SLO accumulators into the Result: all
// merging is integer summation (exact at any shard count), converted to
// seconds and rates only at the very end. The p99 proxy is the upper
// edge of the first histogram bucket at or past the 99th percentile,
// compared in integers (cum*100 >= total*99) so no division order can
// flip a boundary sample.
func (e *Engine) finishSLO() {
	res := e.res
	res.SLOViolationsByPriority = make(map[int]float64, len(e.sloViolByLevel))
	var viol uint64
	for lvl, n := range e.sloViolByLevel {
		res.SLOViolationsByPriority[lvl] = float64(n) * trace.SampleInterval
		viol += n
	}
	res.SLOViolationSeconds = float64(viol) * trace.SampleInterval
	res.SLOSampleSeconds = float64(e.sloSampleCount) * trace.SampleInterval
	if e.sloSampleCount > 0 {
		res.SLOViolationRate = float64(viol) / float64(e.sloSampleCount)
	}
	merged := e.sloHists[0]
	for _, h := range e.sloHists[1:] {
		for i, v := range h {
			merged[i] += v
		}
	}
	var total uint64
	for _, v := range merged {
		total += v
	}
	if total == 0 {
		return
	}
	var cum uint64
	for i, v := range merged {
		cum += v
		if cum*100 >= total*99 {
			res.SLOLatencyP99 = 1 + float64(i+1)/sloHistScale
			return
		}
	}
}

// pushShocks schedules the run's capacity-shock events: the explicit
// Config.Shocks list when given, otherwise a schedule generated for
// this run's own server count from Config.ShockConfig. Shocks
// addressing servers beyond the provisioned count are dropped, so one
// schedule replays against any cluster size.
func (e *Engine) pushShocks(q eventQueue) {
	shocks := e.cfg.Shocks
	if shocks == nil && e.cfg.ShockConfig != nil {
		sc := *e.cfg.ShockConfig
		if sc.Duration <= 0 {
			sc.Duration = e.horizon
		}
		if e.rateScale != nil {
			sc.RateScale = e.rateScale // portfolio types shape per-server rates
		}
		shocks = trace.GenerateShocks(sc, e.nServers)
	}
	for i := range shocks {
		sh := &shocks[i]
		if sh.Server < 0 || sh.Server >= e.nServers {
			continue
		}
		var kind eventKind
		switch sh.Kind {
		case trace.ShockRevoke:
			kind = evRevoke
		case trace.ShockRestore:
			kind = evRestore
		case trace.ShockResize:
			kind = evResize
		default:
			continue
		}
		q.push(simEvent{at: sh.At, kind: kind, shock: sh, seq: i})
	}
}

// remainingDemand integrates a VM's CPU demand (core-seconds) from
// time t to its natural end: the demand a kill destroys. Shared by the
// preemption baseline and the deflation engine's shock kills so both
// charge a destroyed VM identically.
func remainingDemand(rec *trace.VMRecord, t float64) float64 {
	var d float64
	for ts := t; ts < rec.End; ts += trace.SampleInterval {
		d += rec.UtilAt(ts) / 100 * float64(rec.Cores) * trace.SampleInterval
	}
	return d
}

// remainingDemandOf is remainingDemand for a tracked VM, reading
// utilisation through the streamed cursor when one is bound. The cursor
// produces the same sample bits as the materialised series, so both
// forms charge a killed VM identically.
func (e *Engine) remainingDemandOf(vt *vmTracking, t float64) float64 {
	if vt.cur == nil {
		return remainingDemand(vt.rec, t)
	}
	var d float64
	for ts := t; ts < vt.rec.End; ts += trace.SampleInterval {
		d += vt.cur.At(ts) / 100 * float64(vt.rec.Cores) * trace.SampleInterval
	}
	return d
}

// applyEvacuation folds one capacity shock's evacuation outcome into
// the run state: relocated VMs swap to their new domains (and re-meter
// allocation-based billing at the relocation allocation), killed VMs
// are settled and dropped at the shock instant — their already-queued
// departure events become stale and are skipped by the departure
// batch's running-set guard. A killed deflatable VM's never-served
// future demand is charged to both the demand and loss integrals,
// exactly as the preemption baseline charges its shock kills, so the
// two modes' ThroughputLoss stays comparable under shocks.
func (e *Engine) applyEvacuation(out cluster.Evacuation, at float64) {
	for i := range out.VMs {
		name := out.VMs[i].Name
		vt, ok := e.running[name]
		if !ok {
			continue
		}
		pl := out.Placements[i]
		if pl.Err != nil {
			e.res.ShockKills++
			if out.VMs[i].Deflatable {
				rem := e.remainingDemandOf(vt, at)
				vt.demand += rem
				vt.lost += rem
			}
			e.closeVM(vt, at)
			e.dropRunning(name, vt)
			continue
		}
		e.res.Evacuations++
		e.res.DisplacedDowntime += e.cfg.EvacuationDowntime
		vt.domain = pl.Domain
		for j := range vt.meters {
			s := e.cfg.PricingSchemes[j]
			vt.meters[j].Observe(at/3600, s.Rate(out.VMs[i].Size, vt.prio, pl.Initial))
		}
	}
}

// samplePass meters every running VM at one 5-minute boundary. Each
// sampleVM call reads and writes only its own VM's record, domain and
// meters, so with Shards > 1 the running list is split into contiguous
// chunks sampled concurrently — no cross-VM float accumulation exists
// to reorder, which is why the shard count cannot change any result.
func (e *Engine) samplePass(at float64) {
	if e.shards <= 1 || len(e.runList) < minShardedSample {
		var hist []uint64
		if e.sloHists != nil {
			hist = e.sloHists[0]
		}
		for _, vt := range e.runList {
			sampleVM(vt, at, e.cfg, hist)
		}
		return
	}
	n := len(e.runList)
	var wg sync.WaitGroup
	for w := 0; w < e.shards; w++ {
		lo, hi := w*n/e.shards, (w+1)*n/e.shards
		if lo == hi {
			continue
		}
		var hist []uint64
		if e.sloHists != nil {
			hist = e.sloHists[w]
		}
		wg.Add(1)
		go func(chunk []*vmTracking, hist []uint64) {
			defer wg.Done()
			for _, vt := range chunk {
				sampleVM(vt, at, e.cfg, hist)
			}
		}(e.runList[lo:hi], hist)
	}
	wg.Wait()
}

// addRunning and dropRunning keep the running map and the sharded
// sample pass's slice in sync; dropRunning swap-removes, which reorders
// the list but sampling is per-VM isolated so order never matters.
func (e *Engine) addRunning(id string, vt *vmTracking) {
	vt.idx = len(e.runList)
	e.runList = append(e.runList, vt)
	e.running[id] = vt
}

func (e *Engine) dropRunning(id string, vt *vmTracking) {
	last := len(e.runList) - 1
	moved := e.runList[last]
	e.runList[vt.idx] = moved
	moved.idx = vt.idx
	e.runList = e.runList[:last]
	delete(e.running, id)
}

// closeVM settles a VM's meters and folds its demand integrals into the
// run accumulators.
func (e *Engine) closeVM(vt *vmTracking, at float64) {
	finishVM(vt, at, e.res, e.cfg)
	e.demandTotal += vt.demand
	e.lostTotal += vt.lost
	if e.cfg.SLO != nil {
		e.sloViolByLevel[priorityLevel(vt.prio, e.cfg.PriorityLevels)] += uint64(vt.sloViol)
		e.sloSampleCount += uint64(vt.sloSamples)
	}
	if vt.cur != nil {
		e.cursorFree = append(e.cursorFree, vt.cur)
		vt.cur = nil
	}
}

// handleArrival admits one VM through the manager's placement,
// scheduling its departure only when the placement succeeds (rejected
// VMs leave no residue in the queue). Admission-time billing reads
// Placement.Initial, the allocation the VM launched with.
func (e *Engine) handleArrival(ev simEvent) {
	cfg := e.cfg
	streamed := cfg.Stream != nil
	vm := ev.vm
	deflatable := vm.Class == trace.Interactive
	var prio float64
	dc := hypervisor.DomainConfig{
		Name:       vm.ID,
		Size:       vmSize(vm),
		Deflatable: deflatable,
	}
	switch {
	case !deflatable:
		// On-demand VM: its priority is 0, and nothing downstream reads
		// an on-demand VM's p95-derived prio (no meters, no SLO samples),
		// so skip the series read.
	case streamed:
		// The record carries no materialised series; synthesize it once
		// into the reusable buffer for the P95 the priority quantises,
		// reading the admission-instant load off sample 0 (ev.at is
		// exactly vm.Start) before the selection reorders the buffer.
		// Same bits as the eager reads.
		p := cfg.Stream.Params(ev.seq)
		e.utilBuf = e.synth.Append(p, e.utilBuf[:0])
		if cfg.SLO != nil {
			dc.Load = e.utilBuf[0] / 100 * float64(vm.Cores)
		}
		prio = policy.PriorityFromP95(stats.PercentileInPlace(e.utilBuf, 95), cfg.PriorityLevels)
		dc.Priority = prio
	default:
		// vm.P95() without its per-call copy: select in the reusable
		// buffer, leaving the record's series untouched.
		e.utilBuf = append(e.utilBuf[:0], vm.CPUUtil...)
		prio = policy.PriorityFromP95(stats.PercentileInPlace(e.utilBuf, 95), cfg.PriorityLevels)
		dc.Priority = prio
		if cfg.SLO != nil {
			// Seed the admission-time offered load so the VM's own
			// admission pass (and any deflation it triggers) sees it.
			dc.Load = vm.UtilAt(ev.at) / 100 * float64(vm.Cores)
		}
	}

	e.dcBuf[0] = dc
	e.plBuf = e.mgr.PlaceVMs(e.dcBuf[:], e.plBuf[:0])
	pl := e.plBuf[0]
	e.res.Arrivals++
	// Count reclamation attempts: did this placement need deflation?
	if pl.NeedsReclaim {
		e.res.ReclamationAttempts++
	}
	if pl.Err != nil {
		e.res.Rejected++
		return
	}
	e.res.Admitted++
	vt := &vmTracking{rec: vm, domain: pl.Domain, admitT: ev.at, prio: prio}
	if deflatable {
		e.res.DeflatableAdmitted++
		vt.meters = make([]pricing.Meter, len(cfg.PricingSchemes))
		for j, s := range cfg.PricingSchemes {
			vt.meters[j].Observe(ev.at/3600, s.Rate(dc.Size, prio, pl.Initial))
		}
	}
	if streamed {
		// Bind a utilisation cursor for the VM's lifetime, recycled
		// through the free list so steady-state churn allocates nothing.
		var cur *trace.UtilCursor
		if n := len(e.cursorFree); n > 0 {
			cur, e.cursorFree = e.cursorFree[n-1], e.cursorFree[:n-1]
		} else {
			cur = trace.NewUtilCursor()
		}
		cur.Reset(cfg.Stream.Params(ev.seq))
		vt.cur = cur
	}
	e.addRunning(vm.ID, vt)
	e.queue.push(simEvent{at: vm.End, kind: evDeparture, vm: vm, seq: ev.seq})
}

// sampleVM accumulates demand/loss, SLO state and allocation-based
// billing at one 5-minute boundary. It touches only vt's own state (and
// reads its domain through that domain's lock; hist belongs to this
// VM's shard alone), which is what makes the sharded sample pass safe
// and shard-count-invariant. With cfg.SLO set it additionally maps the
// offered load and current allocation to a request slowdown through the
// closed-form PS model — pure float math, so the pass stays
// allocation-free — and publishes the load to the domain for the
// latency-aware policy's next pass.
func sampleVM(vt *vmTracking, at float64, cfg Config, hist []uint64) {
	if !vt.domain.Deflatable() {
		return
	}
	util := vmUtil(vt, at)
	maxCores := vt.domain.MaxSize().Get(resources.CPU)
	allocCores := vt.domain.Allocation().Get(resources.CPU)
	demand := util / 100 * maxCores * trace.SampleInterval
	vt.demand += demand
	if over := util/100*maxCores - allocCores; over > 0 {
		vt.lost += over * trace.SampleInterval
	}
	if cfg.SLO != nil {
		load := util / 100 * maxCores
		vt.domain.SetOfferedLoad(load)
		effCap := cfg.SLO.Curve.EffectiveCapacity(maxCores, allocCores)
		s := queueing.PSSlowdownRatio(load, maxCores, effCap, sloSlowdownCap)
		vt.sloSamples++
		if s > cfg.SLO.MaxSlowdown+1e-9 {
			vt.sloViol++
		}
		idx := int((s - 1) * sloHistScale)
		if idx < 0 {
			idx = 0
		} else if idx >= sloHistBuckets {
			idx = sloHistBuckets - 1
		}
		hist[idx]++
	}
	for i := range vt.meters {
		var rate float64
		switch cfg.PricingSchemes[i].Name() {
		case "static":
			rate = 0.2 * maxCores
		case "priority":
			rate = vt.prio * maxCores
		case "allocation":
			rate = 0.2 * allocCores
		}
		vt.meters[i].Observe(at/3600, rate)
	}
}

// vmUtil reads a tracked VM's utilisation at time t: through the
// streamed cursor when one is bound (samples advance monotonically, so
// the cursor's forward reads are O(1) amortised), else from the
// materialised series. The two produce identical bits — the cursor
// replays the same generator from the same per-VM seed.
func vmUtil(vt *vmTracking, at float64) float64 {
	if vt.cur != nil {
		return vt.cur.At(at)
	}
	return vt.rec.UtilAt(at)
}

// finishVM settles a departing (or shock-killed) VM's billing: each
// scheme's meter closes into Revenue, the "priority" scheme is
// additionally split by quantised priority level, and the VM's
// on-demand-equivalent bill (cores × hours at rate 1) accumulates so
// the run can report the paper's customer cost-savings fraction.
func finishVM(vt *vmTracking, at float64, res *Result, cfg Config) {
	for i := range vt.meters {
		name := cfg.PricingSchemes[i].Name()
		rev := vt.meters[i].Close(at / 3600)
		res.Revenue[name] += rev
		if name == "priority" {
			res.RevenueByPriority[priorityLevel(vt.prio, cfg.PriorityLevels)] += rev
		}
	}
	if vt.meters != nil {
		res.OnDemandRevenue += float64(vt.rec.Cores) * (at - vt.admitT) / 3600
	}
}

// priorityLevel maps a quantised priority pi = (level+1)/n back to its
// zero-based level index.
func priorityLevel(prio float64, levels int) int {
	lvl := int(prio*float64(levels)+0.5) - 1
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= levels {
		lvl = levels - 1
	}
	return lvl
}

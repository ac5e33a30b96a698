package main

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/risk"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// The replay drives one generated trace through cluster.Manager from
// this package, in the engine's (time, kind, trace-index) event order,
// and records a span around every public call it makes into the
// cluster and trace layers. It reproduces the engine's placement-facing
// behaviour only — no metering or billing — which is all the manager
// state depends on, so its admission, pressure, evacuation and
// risk-rejection counts must equal the engine's Result (replay parity).

// spanKind names what a span covers: one event the replay handles, or
// one public call it makes while handling that event.
type spanKind uint8

const (
	spArrivals spanKind = iota
	spDepartures
	spSample
	spRevoke
	spRestore
	spResize
	spPlaceVMs
	spRemoveVMs
	spRevokeServers
	spRestoreServer
	spResizeServer
	spParams
	spSynthAppend
	spCursorAt
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"event.arrivals", "event.departures", "event.sample", "event.revoke", "event.restore", "event.resize",
	"cluster.Manager.PlaceVMs", "cluster.Manager.RemoveVMs", "cluster.Manager.RevokeServers",
	"cluster.Manager.RestoreServer", "cluster.Manager.ResizeServer",
	"trace.Stream.Params", "trace.SeriesSynth.Append", "trace.UtilCursor.At",
}

// span is one recorded interval: start in nanoseconds since the replay
// began, duration in nanoseconds. parent indexes the span that caused
// it (-1 for an event span); items is how many VMs or servers the call
// handled.
type span struct {
	start  int64
	dur    uint32
	parent int32
	items  int32
	kind   spanKind
}

// recorder keeps spans in memory until the replay ends.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) begin(k spanKind, parent int32, items int) int32 {
	r.spans = append(r.spans, span{start: int64(time.Since(r.base)), parent: parent, items: int32(items), kind: k})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	s := &r.spans[id]
	s.dur = uint32(min(int64(time.Since(r.base))-s.start, math.MaxUint32))
}

// write stores the spans as little-endian binary: the magic
// "PBSPANS1", the span-name count and each name (uint16 length, bytes),
// the span count (uint64), then per span the start (int64 ns), the
// duration (uint32 ns), parent and items (int32) and the kind (uint8).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	buf := []byte("PBSPANS1")
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spanNames)))
	for _, n := range spanNames {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.spans)))
	w.Write(buf)
	for _, s := range r.spans {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.start))
		buf = binary.LittleEndian.AppendUint32(buf, s.dur)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.parent))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.items))
		buf = append(buf, byte(s.kind))
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Event kinds, ranked as the engine ranks them at equal times:
// samples, departures, restores, revocations, resizes, arrivals.
const (
	evSample = iota
	evDeparture
	evRestore
	evRevoke
	evResize
	evArrival
)

// replayEvent is one pending event. seq is the VM's trace index for
// arrivals and departures and the shock's schedule index for shocks.
type replayEvent struct {
	at   float64
	kind int
	seq  int
	name string // departing VM
}

func eventLess(a, b replayEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

type eventHeap []replayEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(replayEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// replayVM is one running VM.
type replayVM struct {
	dom   *hypervisor.Domain
	cur   *trace.UtilCursor // deflatable VMs only
	cores float64
	pos   int // index in the replay's running list
}

// replayCounts are the replay's outcome and work counters.
type replayCounts struct {
	arrivals, admitted, rejected  int
	reclaimAttempts               int
	pressured, scored, pruned     int
	deflationEvents               int
	riskRejections                int
	displaced, evacuations, kills int
	revokeCalls, restoreCalls     int
}

// fleet is the replay's provisioned cluster: the same servers, specs
// and shock schedule the engine derives from the same configuration.
type fleet struct {
	mgrCfg  cluster.Config
	specs   []cluster.ServerSpec
	baseCap []resources.Vector
	shocks  []trace.CapacityShock
}

// orOne is clustersim's ServerType field default: non-positive means 1.
func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// portfolioTypes apportions n servers across the portfolio by largest
// remainder, each type taking a contiguous run of indexes in
// declaration order — the engine's documented provisioning rule.
func portfolioTypes(types []clustersim.ServerType, n int) []int {
	if len(types) == 0 {
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

// newFleet derives the cluster the engine provisions for w at baseline
// size base, and the shock schedule it replays over horizon.
func newFleet(w workload, base int, seed int64, horizon float64) fleet {
	n := int(math.Ceil(float64(base) / (1 + w.overcommit)))
	if n < 1 {
		n = 1
	}
	f := fleet{
		mgrCfg: cluster.Config{
			Policy:          w.policy,
			Mechanism:       mechanism.Transparent{},
			PriorityLevels:  4,
			ReinflateShards: 1,
		},
		specs:   make([]cluster.ServerSpec, n),
		baseCap: make([]resources.Vector, n),
	}
	if w.risk != nil {
		f.mgrCfg.Risk = &cluster.RiskConfig{HighPriority: w.risk.HighPriority, MaxBands: w.risk.Bands}
	}
	typeOf := portfolioTypes(w.portfolio, n)
	var rateScale []float64
	if typeOf != nil {
		rateScale = make([]float64, n)
		for i, t := range typeOf {
			rateScale[i] = orOne(w.portfolio[t].ShockRateScale)
		}
	}
	var model *risk.Model
	bands, headroom := 0, 1.0
	if w.risk != nil && w.shocks != nil {
		sc := *w.shocks
		sc.Seed = seed
		sc.RateScale = rateScale
		model = risk.New(sc, n)
		if bands = w.risk.Bands; bands <= 0 {
			bands = 4
		}
		if w.risk.HeadroomScale > 0 {
			headroom = w.risk.HeadroomScale
		}
	}
	for i := 0; i < n; i++ {
		capacity := clustersim.DefaultServerCapacity()
		if typeOf != nil {
			capacity = capacity.Scale(orOne(w.portfolio[typeOf[i]].CapacityScale))
		}
		f.baseCap[i] = capacity
		f.specs[i] = cluster.ServerSpec{Name: fmt.Sprintf("node-%03d", i), Capacity: capacity}
		if model != nil {
			f.specs[i].Band = model.Band(i, bands)
			if fr := model.OutageFraction(i) * headroom; fr > 0 {
				f.specs[i].ReserveFraction = math.Min(fr, 1)
			}
		}
	}
	if w.shocks != nil {
		sc := *w.shocks
		sc.Seed = seed
		if sc.Duration <= 0 {
			sc.Duration = horizon
		}
		sc.RateScale = rateScale
		f.shocks = trace.GenerateShocks(sc, n)
	}
	return f
}

// newManager builds an empty manager provisioned with the fleet.
func (f fleet) newManager() (*cluster.Manager, error) {
	mgr := cluster.NewManager(f.mgrCfg)
	for _, spec := range f.specs {
		if _, err := mgr.AddServerSpec(spec); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	return mgr, nil
}

// vmSnap is one running VM at the snapshot instant.
type vmSnap struct {
	cfg   hypervisor.DomainConfig // Load is the live offered load
	alloc resources.Vector
}

// serverSnap is one server at the snapshot instant.
type serverSnap struct {
	name     string
	band     int
	revoked  bool
	capacity resources.Vector
	agg      hypervisor.Aggregates
	vms      []vmSnap
}

// fleetSnapshot is the replay's fleet at a fixed simulated instant,
// read through Manager.Servers and each host's public accessors, plus
// the trace indexes of the arrivals that follow it (the probes'
// queries).
type fleetSnapshot struct {
	at       float64
	servers  []serverSnap
	upcoming []int
}

// replayResult is what one replay hands the metrics and probes.
type replayResult struct {
	counts replayCounts
	rec    *recorder
	snap   *fleetSnapshot
	fleet  fleet
}

// snapshotQueries is how many upcoming arrivals the snapshot keeps as
// probe queries.
const snapshotQueries = 2000

// replay runs the trace s through a fresh manager for workload w.
func replay(w workload, s *trace.Stream, base int, seed int64) (*replayResult, error) {
	n := s.Len()
	starts := make([]float64, n)
	order := make([]int, n)
	var horizon float64
	for i := 0; i < n; i++ {
		p := s.Params(i)
		starts[i], order[i] = p.Start, i
		horizon = math.Max(horizon, p.End)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if starts[ia] != starts[ib] {
			return starts[ia] < starts[ib]
		}
		return ia < ib
	})

	fl := newFleet(w, base, seed, horizon)
	mgr, err := fl.newManager()
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	names := make([]string, len(fl.specs))
	for i, spec := range fl.specs {
		names[i] = spec.Name
	}
	revoked := make([]bool, len(fl.specs))

	q := &eventHeap{}
	if trace.SampleInterval <= horizon {
		heap.Push(q, replayEvent{at: trace.SampleInterval, kind: evSample})
	}
	for i, sh := range fl.shocks {
		if sh.Server < 0 || sh.Server >= len(fl.specs) {
			continue
		}
		kind := -1
		switch sh.Kind {
		case trace.ShockRevoke:
			kind = evRevoke
		case trace.ShockRestore:
			kind = evRestore
		case trace.ShockResize:
			kind = evResize
		}
		if kind >= 0 {
			heap.Push(q, replayEvent{at: sh.At, kind: kind, seq: i})
		}
	}

	rec := &recorder{base: time.Now()}
	out := &replayResult{rec: rec, fleet: fl}
	c := &out.counts
	running := map[string]*replayVM{}
	var (
		runList  []*replayVM
		free     []*trace.UtilCursor
		synth    = trace.NewSeriesSynth()
		utilBuf  []float64
		params   []trace.VMParams
		dcs      []hypervisor.DomainConfig
		pls      []cluster.Placement
		batch    []replayEvent
		batchIDs []string
	)
	drop := func(name string, vm *replayVM) {
		last := runList[len(runList)-1]
		runList[vm.pos], last.pos = last, vm.pos
		runList = runList[:len(runList)-1]
		delete(running, name)
		if vm.cur != nil {
			free = append(free, vm.cur)
		}
	}
	evacuate := func(ev cluster.Evacuation) {
		for i, dc := range ev.VMs {
			vm, ok := running[dc.Name]
			if !ok {
				continue
			}
			c.displaced++
			if ev.Placements[i].Err != nil {
				c.kills++
				drop(dc.Name, vm)
				continue
			}
			c.evacuations++
			vm.dom = ev.Placements[i].Domain
		}
	}
	next := 0 // position in order of the next arrival
	pop := func() (replayEvent, bool) {
		if next < n {
			a := replayEvent{at: starts[order[next]], kind: evArrival, seq: order[next]}
			if q.Len() == 0 || eventLess(a, (*q)[0]) {
				next++
				return a, true
			}
		}
		if q.Len() == 0 {
			return replayEvent{}, false
		}
		return heap.Pop(q).(replayEvent), true
	}
	peek := func() (replayEvent, bool) {
		if next < n {
			a := replayEvent{at: starts[order[next]], kind: evArrival, seq: order[next]}
			if q.Len() == 0 || eventLess(a, (*q)[0]) {
				return a, true
			}
		}
		if q.Len() == 0 {
			return replayEvent{}, false
		}
		return (*q)[0], true
	}
	// coalesce extends batch with the queued events sharing ev's time and
	// kind, as the engine batches simultaneous events.
	coalesce := func(ev replayEvent) {
		batch = append(batch[:0], ev)
		for {
			nx, ok := peek()
			if !ok || nx.at != ev.at || nx.kind != ev.kind {
				return
			}
			nx, _ = pop()
			batch = append(batch, nx)
		}
	}

	for {
		ev, ok := pop()
		if !ok {
			break
		}
		switch ev.kind {
		case evSample:
			top := rec.begin(spSample, -1, len(runList))
			if out.snap == nil && ev.at >= horizon/2 {
				out.snap = snapshot(mgr, ev.at, order[next:])
			}
			for _, vm := range runList {
				if vm.cur == nil {
					continue
				}
				id := rec.begin(spCursorAt, top, 1)
				util := vm.cur.At(ev.at)
				rec.end(id)
				if w.slo != nil {
					vm.dom.SetOfferedLoad(util / 100 * vm.cores)
				}
			}
			rec.end(top)
			if nx := ev.at + trace.SampleInterval; nx <= horizon {
				heap.Push(q, replayEvent{at: nx, kind: evSample})
			}

		case evArrival:
			// The engine closes an arrival batch after a zero-lifetime VM;
			// the synthetic generators never produce one, which the parity
			// check would expose.
			coalesce(ev)
			top := rec.begin(spArrivals, -1, len(batch))
			params, dcs = params[:0], dcs[:0]
			for _, a := range batch {
				id := rec.begin(spParams, top, 1)
				p := s.Params(a.seq)
				rec.end(id)
				dc := hypervisor.DomainConfig{
					Name:       p.ID(),
					Size:       resources.CPUMem(float64(p.Cores), p.MemoryMB),
					Deflatable: p.Class == trace.Interactive,
				}
				if dc.Deflatable {
					id := rec.begin(spSynthAppend, top, 1)
					utilBuf = synth.Append(p, utilBuf[:0])
					rec.end(id)
					dc.Priority = policy.PriorityFromP95(stats.Percentile(utilBuf, 95), 4)
					if w.slo != nil {
						dc.Load = utilBuf[0] / 100 * float64(p.Cores)
					}
				}
				params = append(params, p)
				dcs = append(dcs, dc)
			}
			id := rec.begin(spPlaceVMs, top, len(dcs))
			pls = mgr.PlaceVMs(dcs, pls[:0])
			rec.end(id)
			for i, pl := range pls {
				c.arrivals++
				if pl.NeedsReclaim {
					c.reclaimAttempts++
				}
				if pl.Err != nil {
					c.rejected++
					continue
				}
				c.admitted++
				p := params[i]
				vm := &replayVM{dom: pl.Domain, cores: float64(p.Cores), pos: len(runList)}
				if dcs[i].Deflatable {
					if k := len(free); k > 0 {
						vm.cur, free = free[k-1], free[:k-1]
					} else {
						vm.cur = trace.NewUtilCursor()
					}
					vm.cur.Reset(p)
				}
				runList = append(runList, vm)
				running[dcs[i].Name] = vm
				heap.Push(q, replayEvent{at: p.End, kind: evDeparture, seq: p.Index, name: dcs[i].Name})
			}
			rec.end(top)

		case evDeparture:
			coalesce(ev)
			top := rec.begin(spDepartures, -1, len(batch))
			batchIDs = batchIDs[:0]
			for _, d := range batch {
				if vm, ok := running[d.name]; ok {
					drop(d.name, vm)
					batchIDs = append(batchIDs, d.name)
				}
			}
			if len(batchIDs) > 0 {
				id := rec.begin(spRemoveVMs, top, len(batchIDs))
				err := mgr.RemoveVMs(batchIDs...)
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
			}
			rec.end(top)

		case evRevoke:
			coalesce(ev)
			top := rec.begin(spRevoke, -1, len(batch))
			batchIDs = batchIDs[:0]
			for _, r := range batch {
				i := fl.shocks[r.seq].Server
				if !revoked[i] {
					revoked[i] = true
					batchIDs = append(batchIDs, names[i])
				}
			}
			if len(batchIDs) > 0 {
				c.revokeCalls++
				id := rec.begin(spRevokeServers, top, len(batchIDs))
				evac, err := mgr.RevokeServers(batchIDs...)
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				evacuate(evac)
			}
			rec.end(top)

		case evRestore:
			i := fl.shocks[ev.seq].Server
			top := rec.begin(spRestore, -1, 1)
			if revoked[i] {
				revoked[i] = false
				c.restoreCalls++
				id := rec.begin(spRestoreServer, top, 1)
				err := mgr.RestoreServer(names[i])
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
			}
			rec.end(top)

		case evResize:
			sh := fl.shocks[ev.seq]
			top := rec.begin(spResize, -1, 1)
			if !revoked[sh.Server] {
				id := rec.begin(spResizeServer, top, 1)
				evac, err := mgr.ResizeServer(names[sh.Server], fl.baseCap[sh.Server].Scale(sh.Scale))
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				evacuate(evac)
			}
			rec.end(top)
		}
	}
	c.pressured, c.scored, c.pruned = mgr.PressureStats()
	c.deflationEvents = mgr.DeflationEvents()
	c.riskRejections = mgr.RiskRejections()
	if out.snap == nil {
		return nil, fmt.Errorf("replay: no sample instant to snapshot the fleet at")
	}
	return out, nil
}

// snapshot reads the fleet at simulated time at through the manager's
// public accessors, and keeps the next arrivals as probe queries.
func snapshot(mgr *cluster.Manager, at float64, upcoming []int) *fleetSnapshot {
	snap := &fleetSnapshot{at: at}
	if len(upcoming) > snapshotQueries {
		upcoming = upcoming[:snapshotQueries]
	}
	snap.upcoming = append([]int(nil), upcoming...)
	for _, s := range mgr.Servers() {
		ss := serverSnap{
			name:     s.Host.Name(),
			band:     s.Band(),
			revoked:  s.Revoked(),
			capacity: s.Host.Capacity(),
			agg:      s.Host.Aggregates(),
		}
		for _, d := range s.Host.Domains() {
			if d.State() != hypervisor.Running {
				continue
			}
			cfg := d.Config()
			cfg.Load = d.OfferedLoad()
			ss.vms = append(ss.vms, vmSnap{cfg: cfg, alloc: d.Allocation()})
		}
		snap.servers = append(snap.servers, ss)
	}
	return snap
}

// checkParity compares the replay's counts with the engine's Result.
func checkParity(c replayCounts, res *clustersim.Result) error {
	pairs := []struct {
		what           string
		replay, engine int
	}{
		{"arrivals", c.arrivals, res.Arrivals},
		{"admitted", c.admitted, res.Admitted},
		{"rejected", c.rejected, res.Rejected},
		{"reclamation attempts", c.reclaimAttempts, res.ReclamationAttempts},
		{"pressured arrivals", c.pressured, res.PressuredArrivals},
		{"pressure scored", c.scored, res.PressureScored},
		{"pressure pruned", c.pruned, res.PressurePruned},
		{"evacuations", c.evacuations, res.Evacuations},
		{"shock kills", c.kills, res.ShockKills},
		{"risk rejections", c.riskRejections, res.RiskRejections},
	}
	for _, p := range pairs {
		if p.replay != p.engine {
			return fmt.Errorf("replay parity: %s %d, engine %d", p.what, p.replay, p.engine)
		}
	}
	return nil
}

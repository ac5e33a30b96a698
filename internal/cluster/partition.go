// Placement partitions: the parallel propose / serial commit arrival
// engine.
//
// The manager splits its servers round-robin across
// Config.PlacementPartitions placement partitions (orthogonal to the
// paper's priority pools, which remain a property of each server). Each
// partition owns, for its servers only: one capacity-index treap per
// priority pool, the dirty set fed by its hosts' aggregate-change
// callbacks, and the scratch arenas the propose phases write into — so
// partitions never share mutable state and a batch's propose work fans
// out across a small pool of phase workers without locks.
//
// A batch placement (PlaceVMs) runs in two steps:
//
//   - Propose (parallel, side-effect-free): against the batch-start
//     state, every partition computes for every VM its surplus bid (the
//     partition's tightest-fit server with free capacity).
//   - Commit (serial, batch order): VMs commit in input order — the
//     canonical trace order, so results cannot depend on the partition
//     count. Each commit first drains the dirty servers (exactly the
//     ones earlier commits touched), then validates the merged surplus
//     proposal: if no server in the VM's priority pool was touched by
//     an earlier commit, the proposals are still exact and are used
//     directly; otherwise the commit re-proposes surplus from the live
//     indexes. VMs with no surplus anywhere fall through to the live
//     under-pressure scan (pressure.go): a best-first branch-and-bound
//     descent over the bound-keyed pressure indexes that computes exact
//     fitness for only as many servers as the bounds cannot exclude —
//     cheap enough that commits run it directly at live state, with no
//     batch-start pressure proposals to validate or weave.
//
// Determinism: propose never mutates, commits happen one at a time in
// batch order, and every merged selection uses the same strict total
// orders as the sequential path — (free share, name) for surplus,
// (band, fitness desc, server add-index asc) for pressure — so the
// outcome is bit-for-bit identical to the sequential indexed path and
// to the brute-force reference at any partition count, which the
// differential suites assert.
package cluster

import (
	"runtime"
	"time"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// placePartition is one placement partition: a slice of the cluster's
// servers plus everything the partition owns for them — per-pool
// capacity indexes, the dirty set, and the propose/sync arenas. All
// fields are touched only under the manager's lock or by the single
// phase worker the dispatcher hands this partition to.
type placePartition struct {
	id      int
	servers []*Server // in AddServer order (ascending Server.gidx)

	indexes map[int]*capindex.Index  // per priority pool, this partition's servers only
	bounds  map[int]*capindex.Index  // fitness-bound twin of indexes (pressure.go)
	maxCap  map[int]resources.Vector // per-pool component-wise max capacity
	dirty   *capindex.DirtySet       // fed by this partition's hosts' callbacks

	// Propose arena, valid for the current batch.
	surplus []*Server // per-VM surplus bid (nil: none in this partition)

	// Band-blind surplus scratch: the pool's per-band indexes and lower
	// bounds joined into one MinFit (only with Config.Risk, where a
	// pool spans several band indexes).
	bandIdx []*capindex.Index
	bandLow []float64

	// Sync arenas: the drained dirty names (sorted) and the per-server
	// aggregate deltas the serial fold applies to the cluster totals.
	names  []string
	deltaC []resources.Vector
	deltaA []resources.Vector
}

// Worker phases. The dispatcher writes the phase before the channel
// sends that release the workers, so the reads in runPhase are ordered
// by the channel.
const (
	phaseSync = iota
	phaseSurplus
)

// parallelSyncMin is the dirty-server count below which the refresh
// stays on the calling goroutine: draining a handful of servers is
// cheaper than a worker round trip.
const parallelSyncMin = 64

// grow returns s with length n, reusing its backing array when large
// enough. Contents of reused elements are unspecified; callers
// overwrite every slot they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// candBefore is the strict total pressure order: hazard band ascending,
// then fitness descending, then server add-index ascending. Candidates
// for non-banded VMs always carry band 0, so for them the order is the
// historical (fitness, idx) pair. It is candList.Less on two loose
// values.
func candBefore(a, b cand) bool {
	if a.band != b.band {
		return a.band < b.band
	}
	if a.fitness != b.fitness {
		return a.fitness > b.fitness
	}
	return a.idx < b.idx
}

// surplusBefore is the strict total surplus order over cached server
// state: (hazard band when banded, free share, name) ascending — the
// cross-partition merge twin of the per-index scans.
func surplusBefore(a, b *Server, banded bool) bool {
	if banded && a.band != b.band {
		return a.band < b.band
	}
	if a.freeShare != b.freeShare {
		return a.freeShare < b.freeShare
	}
	return a.Host.Name() < b.Host.Name()
}

// newcomerRange is the newcomer's own deflatable range, which joins
// every server's maximum reclaim in the feasibility pre-filter.
func newcomerRange(dc hypervisor.DomainConfig) resources.Vector {
	if !dc.Deflatable {
		return resources.Vector{}
	}
	return dc.Size.Sub(dc.Floor()).ClampNonNegative()
}

// startWorkersLocked lazily spawns the phase workers: one per
// partition, capped at GOMAXPROCS but always at least two so the
// propose/commit concurrency is real (and race-checked) even on a
// single-core machine. After Close the manager stays usable with
// phases running inline.
func (m *Manager) startWorkersLocked() {
	if m.workCh != nil || m.closed || len(m.parts) <= 1 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > len(m.parts) {
		w = len(m.parts)
	}
	if w < 2 {
		w = 2
	}
	m.workCh = make(chan int, len(m.parts))
	for i := 0; i < w; i++ {
		go m.phaseWorker(m.workCh)
	}
}

// phaseWorker receives the channel as an argument (rather than reading
// the field) so Close can nil the field under the manager lock without
// racing a worker that is still starting up.
func (m *Manager) phaseWorker(ch chan int) {
	for id := range ch {
		m.runPhase(m.parts[id], m.phase)
		m.wg.Done()
	}
}

// dispatchLocked runs one phase over every partition and waits for the
// barrier. The phase (and m.sortVM for phaseSort) must be set before
// the call; the channel sends order those writes before the workers'
// reads, and wg.Wait orders the workers' writes before the dispatcher
// continues.
func (m *Manager) dispatchLocked(phase int) {
	m.startWorkersLocked()
	if m.workCh == nil {
		for _, p := range m.parts {
			m.runPhase(p, phase)
		}
		return
	}
	m.phase = phase
	m.wg.Add(len(m.parts))
	for id := range m.parts {
		m.workCh <- id
	}
	m.wg.Wait()
}

func (m *Manager) runPhase(p *placePartition, phase int) {
	switch phase {
	case phaseSync:
		p.refresh(m)
	case phaseSurplus:
		p.proposeSurplus(m)
	}
}

// Close stops the phase workers. The manager remains fully usable —
// subsequent batches run their phases inline on the calling goroutine.
// Engines close their manager when a run ends so that sweeps spinning
// up thousands of managers do not accumulate idle goroutines.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.workCh != nil {
		close(m.workCh)
		m.workCh = nil
	}
	m.closed = true
	m.mu.Unlock()
}

// syncDirtyLocked refreshes cached placement state (per-server
// aggregates, free/availability vectors, index keys) for every server
// the hosts marked dirty since the last query. Each partition refreshes
// its own servers — fanned out across the phase workers when the dirty
// set is large — and the cluster-total deltas are then folded serially
// in globally sorted name order, so the totals' float accumulation
// order is identical at any partition and worker count (and to the
// pre-partitioned engine, which drained one global set in sorted
// order). Between bursts of churn it is a no-op.
func (m *Manager) syncDirtyLocked() {
	total := 0
	for _, p := range m.parts {
		p.names = p.dirty.Drain()
		total += len(p.names)
	}
	if total == 0 {
		return
	}
	m.synced += total
	if total >= parallelSyncMin && len(m.parts) > 1 {
		m.dispatchLocked(phaseSync)
	} else {
		for _, p := range m.parts {
			p.refresh(m)
		}
	}
	m.foldDeltasLocked()
}

// refresh re-derives the cached state of this partition's dirty
// servers. It writes only per-server fields and the partition's own
// index, so refreshes of distinct partitions are safe in parallel; the
// cluster-total deltas are recorded for the serial fold instead of
// being applied here.
func (p *placePartition) refresh(m *Manager) {
	p.deltaC = p.deltaC[:0]
	p.deltaA = p.deltaA[:0]
	for _, name := range p.names {
		s := m.byName[name]
		agg := s.Host.Aggregates()
		p.deltaC = append(p.deltaC, agg.Committed.Sub(s.agg.Committed))
		p.deltaA = append(p.deltaA, agg.Allocated.Sub(s.agg.Allocated))
		s.agg = agg
		total := s.Host.Capacity()
		s.free = total.Sub(agg.Allocated)
		s.freeShare = s.free.DominantShare(total)
		s.avail = availabilityFrom(total, agg)
		key := m.poolKey(s.Partition, s.band)
		if s.revoked {
			// A revoked server stays out of the indexes no matter who
			// marked it dirty; its cached state is still refreshed so
			// the delta fold keeps the cluster totals exact.
			p.indexes[key].Delete(name)
			p.bounds[key].Delete(name)
		} else {
			p.indexes[key].Set(name, s.gidx, s.freeShare, s.free)
			p.bounds[key].Set(name, s.gidx, boundKey(s.avail), resources.Vector{})
		}
	}
}

// foldDeltasLocked applies the partitions' recorded aggregate deltas to
// the cluster totals in globally sorted server-name order: each
// partition's drained list is already sorted and the partitions' name
// sets are disjoint, so a k-way head merge visits names in exactly the
// order one global sorted drain would have.
func (m *Manager) foldDeltasLocked() {
	heads := grow(m.foldHeads, len(m.parts))
	for i := range heads {
		heads[i] = 0
	}
	m.foldHeads = heads
	for {
		best := -1
		for pi, p := range m.parts {
			if heads[pi] >= len(p.names) {
				continue
			}
			if best < 0 || p.names[heads[pi]] < m.parts[best].names[heads[best]] {
				best = pi
			}
		}
		if best < 0 {
			return
		}
		p := m.parts[best]
		j := heads[best]
		m.totCommitted = m.totCommitted.Add(p.deltaC[j])
		m.totAllocated = m.totAllocated.Add(p.deltaA[j])
		heads[best]++
	}
}

// surplusKey answers one (pool, band) index's tightest-fit query: the
// fitting server with the smallest (free share, name) in that index.
// Side-effect-free.
func (p *placePartition) surplusKey(m *Manager, key int, size resources.Vector) *Server {
	ix := p.indexes[key]
	if ix == nil {
		return nil
	}
	lower := size.DominantShare(p.maxCap[key]) - fitMargin
	ref, ok := ix.FirstFit(lower, size)
	if !ok {
		return nil
	}
	return m.servers[ref]
}

// surplusLocal answers the partition's tightest-fit surplus query for a
// priority pool: the fitting server with the smallest (free share,
// name) among this partition's pool servers — or, for banded VMs, the
// smallest (hazard band, free share, name), by probing bands ascending
// and taking the first band with any fit. Side-effect-free.
func (p *placePartition) surplusLocal(m *Manager, pool int, size resources.Vector, banded bool) *Server {
	if banded {
		for band := 0; band < m.nBands; band++ {
			if s := p.surplusKey(m, m.poolKey(pool, band), size); s != nil {
				return s
			}
		}
		return nil
	}
	if m.nBands == 1 {
		return p.surplusKey(m, pool, size)
	}
	// Band-blind with several band indexes per pool: one MinFit over
	// the pool's bands gives the (free share, name) minimum.
	ixs, lows := p.bandIdx[:0], p.bandLow[:0]
	for band := 0; band < m.nBands; band++ {
		key := m.poolKey(pool, band)
		ix := p.indexes[key]
		var lower float64
		if ix != nil {
			lower = size.DominantShare(p.maxCap[key]) - fitMargin
		}
		ixs, lows = append(ixs, ix), append(lows, lower)
	}
	p.bandIdx, p.bandLow = ixs, lows
	ref, ok := capindex.MinFit(ixs, lows, size)
	if !ok {
		return nil
	}
	return m.servers[ref]
}

// proposeSurplus records, for every VM of the batch, this partition's
// surplus bid against the batch-start state.
func (p *placePartition) proposeSurplus(m *Manager) {
	p.surplus = grow(p.surplus, len(m.batchDCs))
	for i := range m.batchDCs {
		p.surplus[i] = p.surplusLocal(m, m.batchPools[i], m.batchDCs[i].Size, m.batchBanded[i])
	}
}

// placeAllLocked fills m.results for dcs: the sequential per-VM path
// when there is a single partition (or the brute-force reference is
// selected), the propose/commit engine otherwise.
func (m *Manager) placeAllLocked(dcs []hypervisor.DomainConfig) {
	m.results = grow(m.results, len(dcs))
	if len(dcs) == 0 {
		return
	}
	if len(m.parts) == 1 {
		var t0 time.Time
		if m.cfg.CollectTimings {
			t0 = time.Now()
		}
		for i := range dcs {
			m.results[i] = m.placeSequentialLocked(dcs[i])
		}
		if m.cfg.CollectTimings {
			// With no propose phase, commit is the whole placement time;
			// the surplus/pressure sub-timers (accumulated inside
			// placeSequentialLocked) attribute it further, so artifacts
			// compare like with like against the batch engine.
			m.commitTime += time.Since(t0)
		}
		return
	}
	m.placeBatchLocked(dcs)
}

// placeSequentialLocked is the one-VM-at-a-time placement decision —
// the three-step protocol exactly as PlaceVM has always run it. The
// propose/commit engine must match it bit for bit.
func (m *Manager) placeSequentialLocked(dc hypervisor.DomainConfig) Placement {
	m.syncDirtyLocked()
	if m.riskRejectLocked(dc) {
		m.rejections++
		m.riskRejections++
		return Placement{Err: errHeadroom(dc)}
	}
	best := m.surplusCandidateTimedLocked(m.PartitionOf(dc), dc.Size, m.banded(dc))
	// A surplus candidate in the VM's own pool already proves some
	// server fits without deflation; only its absence needs the
	// cross-pool existence scan.
	out := Placement{NeedsReclaim: best == nil && !m.anyFitsLocked(dc.Size)}
	if _, ok := m.placements[dc.Name]; ok {
		out.Err = errExists(dc.Name)
		return out
	}
	if best != nil {
		d, deflations, err := PlaceOn(best, m.cfg, dc)
		if err == nil {
			m.deflationEvents += deflations
			m.placements[dc.Name] = best
			out.Domain, out.Server = d, best
			out.Initial = d.Allocation()
			return out
		}
	}
	if d, s, ok := m.pressureLiveLocked(dc, best); ok {
		out.Domain, out.Server = d, s
		out.Initial = d.Allocation()
		return out
	}
	if !m.evacuating { // relocation failures are not admission rejections
		m.rejections++
	}
	out.Err = errNoCapacity(dc)
	return out
}

// placeBatchLocked is the partitioned engine: parallel propose against
// the batch-start state, then a serial commit walk in batch order.
func (m *Manager) placeBatchLocked(dcs []hypervisor.DomainConfig) {
	var t0 time.Time
	timed := m.cfg.CollectTimings
	m.syncDirtyLocked()
	if timed {
		t0 = time.Now()
	}
	m.proposeLocked(dcs)
	if timed {
		now := time.Now()
		m.proposeTime += now.Sub(t0)
		t0 = now
	}
	if m.touched == nil {
		m.touched = make(map[*Server]bool)
	}
	clear(m.touched)
	m.touchedList = m.touchedList[:0]
	for i := range dcs {
		m.syncDirtyLocked() // drains exactly what the previous commit touched
		m.results[i] = m.commitOneLocked(i, dcs[i])
	}
	if timed {
		m.commitTime += time.Since(t0)
	}
	m.batchDCs = nil // do not retain the caller's slice
}

// proposeLocked runs the parallel surplus propose phase. Under-pressure
// placement needs no propose phase: commits run the bound-pruned
// descent (pressure.go) directly at live state, which is both exact by
// construction and cheap enough not to want batch-start proposals.
func (m *Manager) proposeLocked(dcs []hypervisor.DomainConfig) {
	m.batchDCs = dcs
	m.batchPools = grow(m.batchPools, len(dcs))
	m.batchBanded = grow(m.batchBanded, len(dcs))
	for i := range dcs {
		m.batchPools[i] = m.PartitionOf(dcs[i])
		m.batchBanded[i] = m.banded(dcs[i])
	}
	m.dispatchLocked(phaseSurplus)
}

// markTouchedLocked records a server mutated by a commit of the current
// batch; proposals naming it are stale from here on.
func (m *Manager) markTouchedLocked(s *Server) {
	if !m.touched[s] {
		m.touched[s] = true
		m.touchedList = append(m.touchedList, s)
	}
}

// touchedInPoolLocked reports whether any earlier commit of this batch
// mutated a server of the given priority pool.
func (m *Manager) touchedInPoolLocked(pool int) bool {
	if pool < 0 {
		return len(m.touchedList) > 0
	}
	for _, s := range m.touchedList {
		if s.Partition == pool {
			return true
		}
	}
	return false
}

// commitOneLocked commits VM i: the same decision placeSequentialLocked
// makes, resolved from the batch proposals when they are still exact
// and re-proposed live on conflict. Called with the dirty set drained.
func (m *Manager) commitOneLocked(i int, dc hypervisor.DomainConfig) Placement {
	if m.riskRejectLocked(dc) { // same gate, same live totals, as the sequential path
		m.rejections++
		m.riskRejections++
		return Placement{Err: errHeadroom(dc)}
	}
	pool := m.batchPools[i]
	var best *Server
	if m.cfg.CollectTimings {
		t0 := time.Now()
		best = m.commitSurplusLocked(i, pool, dc.Size)
		m.surplusTime += time.Since(t0)
	} else {
		best = m.commitSurplusLocked(i, pool, dc.Size)
	}
	// As in placeSequentialLocked: a pool surplus winner implies the
	// cross-pool existence check is true, so it is skipped.
	out := Placement{NeedsReclaim: best == nil && !m.anyFitsLocked(dc.Size)}
	if _, ok := m.placements[dc.Name]; ok {
		out.Err = errExists(dc.Name)
		return out
	}
	if best != nil {
		d, deflations, err := PlaceOn(best, m.cfg, dc)
		if err == nil {
			m.deflationEvents += deflations
			m.placements[dc.Name] = best
			m.markTouchedLocked(best)
			out.Domain, out.Server = d, best
			out.Initial = d.Allocation()
			return out
		}
	}
	// Under pressure the commit runs the live bound-pruned descent
	// directly: the commit loop's dirty sync has already refreshed
	// exactly what earlier commits touched, so the scan is bit-identical
	// to the sequential path's at this state — no batch-start pressure
	// proposal to validate.
	if d, s, ok := m.pressureLiveLocked(dc, best); ok {
		m.markTouchedLocked(s)
		out.Domain, out.Server = d, s
		out.Initial = d.Allocation()
		return out
	}
	if !m.evacuating { // relocation failures are not admission rejections
		m.rejections++
	}
	out.Err = errNoCapacity(dc)
	return out
}

// commitSurplusLocked resolves VM i's surplus winner. With no touched
// server in the VM's pool the proposals are exact (propose is
// side-effect-free and untouched servers' cached state is unchanged
// since the batch-start sync), so the winner is the minimum
// (free share, name) over the partitions' bids; otherwise the batch
// conflicted and the winner is re-proposed from the live indexes, which
// the commit loop's dirty sync keeps current.
func (m *Manager) commitSurplusLocked(i, pool int, size resources.Vector) *Server {
	banded := m.batchBanded[i]
	if m.touchedInPoolLocked(pool) {
		return m.surplusCandidateLocked(pool, size, banded)
	}
	// Each partition's bid is its local (band when banded, free share,
	// name) minimum, so the minimum over bids is the global one.
	var best *Server
	for _, p := range m.parts {
		s := p.surplus[i]
		if s == nil {
			continue
		}
		if best == nil || surplusBefore(s, best, banded) {
			best = s
		}
	}
	return best
}

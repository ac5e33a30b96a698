// The under-pressure placement scan: who hosts a VM when no server has
// surplus capacity for it.
//
// The paper's §5.2 ranking scores EVERY pool server by the
// deflation-aware cosine fitness of its availability vector against the
// demand — O(servers) per pressured arrival, and at cloud scale the
// whole runtime (the 10M-VM run spent ~90% of its wall clock here).
// This file makes the selection sub-linear while staying bit-for-bit
// identical to that full scan.
//
// # The bound index
//
// Beside each surplus index the manager maintains a pressure index per
// (priority pool, hazard band): the same treap keyed by
// boundKey(avail) = |avail|·(1+slack). For non-negative vectors the
// Cauchy–Schwarz inequality gives
//
//	Fitness(D, A) = A·D / max(|D|, 1e-9) <= |A|·|D|/|D| = |A|
//
// so the key upper-bounds any demand's achievable fitness on that
// server — demand-independent, which is what lets one incrementally
// maintained index (refreshed beside the surplus keys under the same
// dirty-flag discipline) serve every arrival. The slack factor absorbs
// float round-off: the computed fitness and the stored |A| each carry
// relative error of a few ulps (~1e-15), so padding the key by 1e-12
// makes "computed fitness never exceeds the stored bound" hold in
// float arithmetic, not just in the reals.
//
// # Best-first branch-and-bound
//
// The scan walks the group's bound indexes in descending (key, name)
// order — loosest bound first — through reusable iterators, one per
// band-key index. Each expanded server is first checked against the
// shared feasibility pre-filter (cannotReclaim — the exact
// expressions tryPlaceLocked uses, so skipping is provably safe), then
// scored exactly and pushed on a min-heap ordered by candBefore. A
// heaped candidate is yielded only while its fitness STRICTLY exceeds
// the largest bound among unexpanded servers: any unexplored u has
// fitness_u <= bound_u <= maxRemaining < top.fitness, so the top
// precedes u under candBefore — and on fitness ties the strictness
// forces expansion first, preserving the add-index-ascending tie-break.
// By induction the yield sequence is exactly the full scan's sorted
// candidate order, truncated at the first successful placement.
//
// Expansion always picks the iterator whose head is the maximum
// (key, name) across the group — the order a single merged index would
// produce — so the number of servers scored (and therefore the
// scored/pruned counters) is a function of the fleet state alone.
//
// Banded VMs exhaust band groups in ascending band order (candBefore
// ranks band first, so band b's worst candidate precedes band b+1's
// best); band-blind VMs merge all the pool's band indexes into one
// group with every candidate carrying band 0, exactly like the full
// scan does.
package cluster

import (
	"sort"
	"time"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// boundSlack pads the pressure-index keys so the stored bound dominates
// the computed fitness despite float round-off on both sides; see the
// package comment above. Orders of magnitude above the ~1e-15 relative
// error of a 4-dimensional dot product, and orders below any fitness
// difference the workload can produce.
const boundSlack = 1e-12

// boundKey is the pressure-index key: a demand-independent upper bound
// on any VM's achievable fitness on a server with this availability.
func boundKey(avail resources.Vector) float64 {
	return avail.Norm() * (1 + boundSlack)
}

// pressureLiveLocked is the live under-pressure placement: rank the
// pool's servers by the §5.2 deflation-aware fitness and deflate
// residents on the best server that can absorb the newcomer. best,
// when non-nil, is the surplus candidate that already failed and is
// skipped. Routes to the bound-pruned descent, or to the linear scan
// under Config.ReferencePlacement / Config.FullPressureScan — all
// realizing the identical strict candidate order. Also the one place
// the pressured-arrival counter and pressure sub-phase timer live, so
// every mode meters identically.
func (m *Manager) pressureLiveLocked(dc hypervisor.DomainConfig, best *Server) (*hypervisor.Domain, *Server, bool) {
	m.pressuredArrivals++
	var t0 time.Time
	if m.cfg.CollectTimings {
		t0 = time.Now()
	}
	var (
		d  *hypervisor.Domain
		s  *Server
		ok bool
	)
	if m.cfg.ReferencePlacement || m.cfg.FullPressureScan {
		d, s, ok = m.pressureFullLocked(dc, best)
	} else {
		d, s, ok = m.pressurePrunedLocked(dc, best)
	}
	if m.cfg.CollectTimings {
		m.pressureTime += time.Since(t0)
	}
	return d, s, ok
}

// pressureFullLocked is the retained linear ranking: score every pool
// server (from cached availability, or fresh reads under
// ReferencePlacement), argmax-first with the sort deferred until the
// argmax cannot absorb the VM. The differential oracle the pruned
// descent is proven against.
func (m *Manager) pressureFullLocked(dc hypervisor.DomainConfig, best *Server) (*hypervisor.Domain, *Server, bool) {
	pool := m.PartitionOf(dc)
	banded := m.banded(dc)
	cands := m.cands[:0]
	for _, s := range m.servers {
		if s.revoked || (pool >= 0 && s.Partition != pool) {
			continue
		}
		avail := s.avail
		if m.cfg.ReferencePlacement {
			avail = Availability(s)
		}
		b := 0
		if banded {
			b = s.band
		}
		cands = append(cands, cand{s, Fitness(dc.Size, avail), s.gidx, b})
	}
	m.cands = cands
	m.pressureScored += len(cands) // the full scan scores everyone, prunes none

	ncRange := newcomerRange(dc)
	first := -1
	for i := range cands {
		if first < 0 || candBefore(cands[i], cands[first]) {
			first = i
		}
	}
	if first >= 0 && cands[first].s != best {
		if d, s, ok := m.tryPlaceLocked(cands[first].s, dc, ncRange); ok {
			return d, s, true
		}
	}
	if first >= 0 {
		sort.Sort(&m.cands)
		for rank, c := range m.cands {
			if c.s == best || rank == 0 {
				continue // already tried above (argmax == rank 0)
			}
			if d, s, ok := m.tryPlaceLocked(c.s, dc, ncRange); ok {
				return d, s, true
			}
		}
	}
	return nil, nil, false
}

// pressurePrunedLocked is the bound-pruned descent: band groups in
// ascending band order for banded VMs, one merged group otherwise, each
// scanned best-first until a candidate absorbs the newcomer or the
// group is exhausted.
func (m *Manager) pressurePrunedLocked(dc hypervisor.DomainConfig, best *Server) (*hypervisor.Domain, *Server, bool) {
	pool := m.PartitionOf(dc)
	ncRange := newcomerRange(dc)
	if m.banded(dc) {
		for band := 0; band < m.nBands; band++ {
			keys := append(m.pressKeys[:0], m.poolKey(pool, band))
			m.pressKeys = keys
			if d, s, ok := m.pressureScanGroupLocked(dc, best, ncRange, keys, band); ok {
				return d, s, true
			}
		}
		return nil, nil, false
	}
	// Band-blind: all of the pool's band indexes join one group and
	// every candidate carries band 0, so candBefore degenerates to the
	// historical (fitness desc, add-index asc) pair.
	keys := m.pressKeys[:0]
	for band := 0; band < m.nBands; band++ {
		keys = append(keys, m.poolKey(pool, band))
	}
	m.pressKeys = keys
	return m.pressureScanGroupLocked(dc, best, ncRange, keys, 0)
}

// pressureScanGroupLocked runs one group's best-first descent, trying
// placement on each yielded candidate in exact candBefore order. The
// group is the bound indexes of the given keys; all its candidates
// carry candBand. Also settles the group's metering: every indexed
// server that never had its fitness computed — excluded
// by the bound, the feasibility pre-filter, or an earlier candidate
// succeeding — counts as pruned.
func (m *Manager) pressureScanGroupLocked(dc hypervisor.DomainConfig, best *Server, ncRange resources.Vector, keys []int, candBand int) (*hypervisor.Domain, *Server, bool) {
	// Point one reusable iterator at each non-empty index of the group.
	// Indexing (not re-slicing through grow) preserves the iterators'
	// inner stacks, so steady-state scans never allocate.
	n := 0
	eligible := 0
	for _, key := range keys {
		ix := m.bounds[key]
		if ix == nil || ix.Len() == 0 {
			continue
		}
		if n == len(m.pressIters) {
			m.pressIters = append(m.pressIters, capindex.DescIter{})
		}
		m.pressIters[n].Reset(ix)
		eligible += ix.Len()
		n++
	}
	iters := m.pressIters[:n]
	scored0 := m.pressureScored

	heap := m.pressHeap[:0]
	var (
		rd  *hypervisor.Domain
		rs  *Server
		hit bool
	)
	for {
		// The loosest remaining bound — and, on bound ties, the largest
		// name: the (key, name)-descending head a single merged index
		// would expose next.
		expand := -1
		var maxKey float64
		var maxName string
		for i := range iters {
			name, key, ok := iters[i].Peek()
			if !ok {
				continue
			}
			if expand < 0 || key > maxKey || (key == maxKey && name > maxName) {
				expand, maxKey, maxName = i, key, name
			}
		}
		// Yield while the heap top STRICTLY beats every unexpanded bound:
		// strictness preserves the gidx tie-break on fitness ties (an
		// unexplored server could tie the top's fitness with a smaller
		// add-index, so ties force expansion first).
		for len(heap) > 0 && (expand < 0 || heap[0].fitness > maxKey) {
			c := heapPopCand(&heap)
			if c.s == best {
				continue // the failed surplus candidate is skipped
			}
			if d, s, ok := m.tryPlaceLocked(c.s, dc, ncRange); ok {
				rd, rs, hit = d, s, true
				break
			}
		}
		if hit || expand < 0 {
			break
		}
		s := m.servers[iters[expand].Ref()]
		iters[expand].Next()
		if cannotReclaim(s, dc, ncRange) {
			continue // fit-skip: counted as pruned, never scored
		}
		m.pressureScored++
		heapPushCand(&heap, cand{s, Fitness(dc.Size, s.avail), s.gidx, candBand})
	}
	m.pressHeap = heap[:0]
	m.pressurePruned += eligible - (m.pressureScored - scored0)
	return rd, rs, hit
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

// newcomerRange is the newcomer's own deflatable range, which joins
// every server's maximum reclaim in the feasibility pre-filter.
func newcomerRange(dc hypervisor.DomainConfig) resources.Vector {
	if !dc.Deflatable {
		return resources.Vector{}
	}
	return dc.Size.Sub(dc.Floor()).ClampNonNegative()
}

// heapPushCand pushes c onto the candBefore-ordered min-heap (the heap
// top is the candidate that precedes all others). Manual sift — the
// container/heap interface would force an allocation per push through
// its interface{} boundary.
func heapPushCand(h *candList, c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candBefore((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// heapPopCand removes and returns the heap top.
func heapPopCand(h *candList) cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && candBefore(s[l], s[least]) {
			least = l
		}
		if r < len(s) && candBefore(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

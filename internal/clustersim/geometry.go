package clustersim

import (
	"cmp"
	"fmt"
	"slices"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// geometry is the compact sizing and planning view of a vmSource: VM
// indices sorted by start (and, when sizing or pool planning needs
// them, by end), the columns those orders sort on, and the trace
// horizon. It is the only O(N) structure a run builds from its input —
// a few machine words per VM, whichever form the input takes — and it
// lives through engine setup only: the run's queue takes over the
// arrival order and the rest is released before the event loop.
type geometry struct {
	byStart []int32 // VM indices sorted by (Start, index)
	starts  []float64
	maxEnd  float64
	// The end order and its columns; nil unless built withEnds.
	byEnd []int32 // VM indices sorted by (End, index)
	ends  []float64
	cores []int32
}

// newGeometry runs the one metadata pass over src, rejecting any VM no
// run can replay (trace.CheckVM, plus an empty utilisation series), and
// sorts the arrival order. withEnds additionally builds the end order,
// which only the bounds and the pool planner walk.
func newGeometry(src vmSource, withEnds bool) (*geometry, error) {
	n := src.len()
	g := &geometry{byStart: make([]int32, n), starts: make([]float64, n)}
	if withEnds {
		g.byEnd, g.ends, g.cores = make([]int32, n), make([]float64, n), make([]int32, n)
	}
	for i := 0; i < n; i++ {
		m := src.meta(i)
		err := trace.CheckVM(m.cores, m.memoryMB, m.start, m.end)
		if err == nil && m.samples < 1 {
			err = fmt.Errorf("empty utilisation series")
		}
		if err != nil {
			return nil, fmt.Errorf("clustersim: VM %s: %w", src.record(i).ID, err)
		}
		g.starts[i], g.byStart[i] = m.start, int32(i)
		if withEnds {
			g.ends[i], g.byEnd[i], g.cores[i] = m.end, int32(i), int32(m.cores)
		}
		if m.end > g.maxEnd {
			g.maxEnd = m.end
		}
	}
	sortByKey(g.byStart, g.starts)
	if withEnds {
		sortByKey(g.byEnd, g.ends)
	}
	return g, nil
}

// sortByKey sorts VM indices by (key, index). That is a strict total
// order over finite keys, so the unstable sort is deterministic.
func sortByKey(idx []int32, key []float64) {
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(key[a], key[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// forEachEvent walks every arrival and departure in (time,
// departures-first, trace index) order by merging the two sorted index
// columns, without materialising a 2N event slice. The bounds and the
// pool planner replay this walk, which fixes their float accumulation
// order. Requires a geometry built withEnds.
func (g *geometry) forEachEvent(fn func(idx int32, arrival bool) bool) {
	i, j := 0, 0
	for i < len(g.byStart) || j < len(g.byEnd) {
		var takeArrival bool
		switch {
		case i >= len(g.byStart):
			takeArrival = false
		case j >= len(g.byEnd):
			takeArrival = true
		default:
			// Departures first on time ties: they free capacity for the
			// newcomers.
			takeArrival = g.ends[g.byEnd[j]] > g.starts[g.byStart[i]]
		}
		if takeArrival {
			if !fn(g.byStart[i], true) {
				return
			}
			i++
		} else {
			if !fn(g.byEnd[j], false) {
				return
			}
			j++
		}
	}
}

// peakServers is the aggregate-demand lower bound on the cluster size:
// peak concurrent committed demand over the server capacity, per
// dimension. It fails if any single VM exceeds a server.
func (g *geometry) peakServers(src vmSource, serverCap resources.Vector) (int, error) {
	var cur, peak resources.Vector
	var err error
	g.forEachEvent(func(idx int32, arrival bool) bool {
		size := src.meta(int(idx)).size()
		if arrival {
			if !size.FitsIn(serverCap) {
				err = fmt.Errorf("clustersim: VM %s (%v) exceeds server capacity %v",
					src.record(int(idx)).ID, size, serverCap)
				return false
			}
			cur = cur.Add(size)
			peak = peak.Max(cur)
		} else {
			cur = cur.Sub(size)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return serversForPeak(peak, serverCap), nil
}

// baselineServers grows the cluster from the peak bound until a
// full-allocation tightest-fit replay admits every VM (fragmentation
// can push the answer above the aggregate bound).
func (g *geometry) baselineServers(src vmSource, serverCap resources.Vector) (int, error) {
	lb, err := g.peakServers(src, serverCap)
	if err != nil {
		return 0, err
	}
	// Fragmentation can exceed the aggregate bound, but not without
	// limit; 4x is a generous safety margin that turns a logic error
	// into a diagnosable failure instead of an unbounded search.
	where := make([]int32, src.len())
	for n := lb; n <= 4*lb+4; n++ {
		if g.feasible(src, n, serverCap, where) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("clustersim: no feasible packing within %d servers", 4*lb+4)
}

// feasible replays the trace at full allocations on n servers with
// tightest-fit placement (minimise the chosen server's leftover
// dominant share) and reports whether every VM fits. Tightest fit keeps
// large servers whole so big VMs stay placeable — the right objective
// for a feasibility bound, as opposed to the load-balancing objective
// of live deflation-aware placement. where is per-VM scratch.
func (g *geometry) feasible(src vmSource, n int, serverCap resources.Vector, where []int32) bool {
	free := make([]resources.Vector, n)
	for i := range free {
		free[i] = serverCap
	}
	for i := range where {
		where[i] = -1
	}
	ok := true
	g.forEachEvent(func(idx int32, arrival bool) bool {
		size := src.meta(int(idx)).size()
		if !arrival {
			if sv := where[idx]; sv >= 0 {
				free[sv] = free[sv].Add(size)
				where[idx] = -1
			}
			return true
		}
		best := tightestFit(free, size, serverCap)
		if best < 0 {
			ok = false
			return false
		}
		free[best] = free[best].Sub(size)
		where[idx] = int32(best)
		return true
	})
	return ok
}

// partitionPlan assigns servers to priority pools proportionally to the
// trace's committed demand per pool ("the size of the different pools
// can be based on the typical workload mix", Section 5.2.1). Pools are
// sized by *peak concurrent* demand per level, not total VM-hours:
// pools sized on averages run out of room at their own peaks and
// deflate even when the cluster as a whole has slack. Each interactive
// VM's level comes from one P95 of its utilisation series. Requires a
// geometry built withEnds.
func (g *geometry) partitionPlan(src vmSource, levels, nServers int) []int {
	lvlOf := make([]int32, src.len())
	var buf []float64
	for i := range lvlOf {
		lvl := levels - 1 // on-demand pool
		if src.meta(i).class == trace.Interactive {
			buf = src.appendUtil(i, buf[:0])
			pr := policy.PriorityFromP95(stats.PercentileInPlace(buf, 95), levels)
			lvl = min(max(int(pr*float64(levels))-1, 0), levels-1)
		}
		lvlOf[i] = int32(lvl)
	}
	demand := make([]float64, levels)
	current := make([]float64, levels)
	g.forEachEvent(func(idx int32, arrival bool) bool {
		lvl := lvlOf[idx]
		if arrival {
			current[lvl] += float64(g.cores[idx])
			if current[lvl] > demand[lvl] {
				demand[lvl] = current[lvl]
			}
		} else {
			current[lvl] -= float64(g.cores[idx])
		}
		return true
	})
	return allocatePools(make([]int, nServers), demand, nServers, levels)
}

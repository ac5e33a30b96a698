// Package capindex is the cluster manager's incremental capacity index:
// the data structures that turn per-arrival O(servers × domains) scans
// into ordered-index queries.
//
// # Architecture
//
// The package provides two pieces, both deliberately ignorant of the
// cluster types that use them:
//
//   - Index — an ordered set of entries keyed by (key, name). It is a
//     treap whose heap priorities are derived deterministically from the
//     entry name (FNV-1a plus a mixing finalizer), so the tree shape — and therefore iteration
//     cost — depends only on the entry set, never on insertion order or
//     a random source. Nodes live in an arena: each name gets one slot
//     for the index's lifetime, links are int32 slot numbers, and a slot
//     is reused when its entry moves key or is deleted and re-inserted,
//     so steady-state updates allocate nothing. The hot node holds only
//     key, priority, links and a caller-supplied ref (the cluster passes
//     the server's add order); names live in a parallel slice read only
//     on key ties and during maintenance.
//
//     An index built by NewFit is the surplus family: every entry also
//     carries its free resource vector, and every node the
//     component-wise maximum of the free vectors in its subtree.
//     FirstFit and MinFit answer the tightest-fit query — the first entry
//     in (key, name) order at or above a key lower bound whose free
//     vector holds a demand — by a descent that skips any subtree whose
//     maximum cannot hold the demand. resources.Vector.FitsIn is
//     monotone in every component of its argument, so a skipped subtree
//     holds no fitting entry and the answer is exactly the predicate
//     walk's. When the servers at or above the bound that fail the fit
//     share a short dimension (say, all memory-full) the descent touches
//     O(tree height) nodes; when they fail on different dimensions
//     (CPU-rich and memory-rich servers interleaved in key order) the
//     subtree maxima mix servers and prune little, and the descent
//     degrades towards the predicate walk, never past it.
//
//     An index built by New is the bound-keyed family (the pressure
//     index, walked best-first by DescIter) and pays no augmentation
//     upkeep. It also keeps the predicate queries FirstFitting and
//     MinFitting, which walk entries in order and call a caller
//     function per entry — the oracle FirstFit is tested against.
//
//   - DirtySet — a mutex-guarded set of server names whose cached state
//     is stale. Host aggregate-change callbacks only Mark (a leaf lock,
//     safe to take while hypervisor locks are held); the manager Drains
//     the set — in sorted name order, so downstream float arithmetic
//     stays deterministic — and refreshes index keys and cached
//     availability vectors for exactly the dirty servers. Membership is
//     a dense per-server bit plus a pending-id list, so a drain costs
//     O(dirty log dirty), independent of fleet size.
//
// # Determinism invariants
//
// Ties on key are broken by name everywhere (every query and iterator),
// so an index query returns the same entry as a brute-force linear scan
// that applies the same (key, name) minimisation — the property the
// cluster package's differential suite asserts bit-for-bit. The subtree
// maxima are exact (a maximum involves no rounding), so pruning by them
// never changes an answer. Drain returns names sorted so that delta
// updates to cluster-wide totals are applied in one fixed order
// regardless of callback arrival order.
package capindex

import "vmdeflate/internal/resources"

// none is the nil slot link.
const none int32 = -1

// node is the hot half of one treap slot: BST-ordered by (key, name),
// heap-ordered by prio. The name, free vector and subtree maximum live
// in the Index's parallel slices under the same slot number.
type node struct {
	key         float64
	prio        uint64
	left, right int32
	ref         int32
	in          bool // the slot's entry is currently in the tree
}

// less orders entries by (key, name) ascending — the tightest-fit scan
// order, with the name tie-break that keeps equal-key selections
// deterministic.
func less(aKey float64, aName string, bKey float64, bName string) bool {
	if aKey != bKey {
		return aKey < bKey
	}
	return aName < bName
}

// priorityOf derives a node's deterministic heap priority from its name:
// 64-bit FNV-1a, then the murmur3 64-bit finalizer. FNV-1a alone leaves
// names that differ only in trailing characters (node-000, node-001, …)
// with correlated high bits, which stacks them into treaps several times
// taller than 3·log2 n; the finalizer spreads every input bit over the
// whole word.
func priorityOf(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Index is an ordered set of (name, key) entries supporting O(log n)
// updates, ordered iteration from a key lower bound and — for an index
// built by NewFit — the pruned tightest-fit query. Not safe for
// concurrent use; the cluster manager serialises access under its own
// lock.
type Index struct {
	root  int32
	nodes []node
	names []string         // slot → name
	slots map[string]int32 // name → slot, append-only
	n     int              // entries in the tree

	// The surplus family's augmentation (NewFit only): the slot's free
	// vector and the component-wise maximum over its subtree.
	fit  bool
	free []resources.Vector
	sub  []resources.Vector
	path []int32 // root-path scratch for free-only updates

	// touches counts nodes the queries examined (FirstFit, MinFit and
	// the predicate walks): a work counter for tests, which bound it
	// exactly.
	touches int
}

// New returns an empty index without free vectors: the bound-keyed
// family, and the form the predicate queries need.
func New() *Index {
	return &Index{root: none, slots: make(map[string]int32)}
}

// NewFit returns an empty surplus index: entries carry free vectors
// (Set), and FirstFit/MinFit prune by subtree maxima.
func NewFit() *Index {
	ix := New()
	ix.fit = true
	return ix
}

// Len returns the number of entries.
func (ix *Index) Len() int { return ix.n }

// Key returns the entry's current key and whether it is present.
func (ix *Index) Key(name string) (float64, bool) {
	slot, ok := ix.slots[name]
	if !ok || !ix.nodes[slot].in {
		return 0, false
	}
	return ix.nodes[slot].key, true
}

// slotOf returns name's slot, allocating one (priority hashed once, ref
// -1) the first time the name is seen.
func (ix *Index) slotOf(name string) int32 {
	if slot, ok := ix.slots[name]; ok {
		return slot
	}
	slot := int32(len(ix.nodes))
	ix.slots[name] = slot
	ix.nodes = append(ix.nodes, node{prio: priorityOf(name), left: none, right: none, ref: -1})
	ix.names = append(ix.names, name)
	if ix.fit {
		ix.free = append(ix.free, resources.Vector{})
		ix.sub = append(ix.sub, resources.Vector{})
	}
	return slot
}

// Set inserts the entry or updates it in place: ref is the caller's
// handle returned by the queries, and free — recorded only by an index
// built with NewFit — the vector FirstFit tests. A key move re-inserts
// the entry's slot; a free-only change at an unchanged key re-derives
// the subtree maxima along one root path; an unchanged entry is a no-op.
func (ix *Index) Set(name string, ref int, key float64, free resources.Vector) {
	ix.set(ix.slotOf(name), ref, key, free)
}

// Upsert inserts the entry or moves it to a new key, keeping its ref and
// free vector (ref -1 and a zero vector for a new entry). A same-key
// upsert is a no-op.
func (ix *Index) Upsert(name string, key float64) {
	slot := ix.slotOf(name)
	var free resources.Vector
	if ix.fit {
		free = ix.free[slot]
	}
	ix.set(slot, int(ix.nodes[slot].ref), key, free)
}

func (ix *Index) set(slot int32, ref int, key float64, free resources.Vector) {
	nd := &ix.nodes[slot]
	nd.ref = int32(ref)
	if nd.in {
		if nd.key == key {
			if ix.fit && ix.free[slot] != free {
				ix.free[slot] = free
				ix.repull(slot)
			}
			return
		}
		ix.root = ix.remove(ix.root, slot)
	} else {
		nd.in = true
		ix.n++
	}
	nd.key, nd.left, nd.right = key, none, none
	if ix.fit {
		ix.free[slot], ix.sub[slot] = free, free
	}
	ix.root = ix.insert(ix.root, slot)
}

// Delete removes the entry if present. Its slot stays reserved for the
// name.
func (ix *Index) Delete(name string) {
	slot, ok := ix.slots[name]
	if !ok || !ix.nodes[slot].in {
		return
	}
	ix.root = ix.remove(ix.root, slot)
	ix.nodes[slot].in = false
	ix.n--
}

// before reports whether slot a's entry orders before slot b's.
func (ix *Index) before(a, b int32) bool {
	ka, kb := ix.nodes[a].key, ix.nodes[b].key
	if ka != kb {
		return ka < kb
	}
	return ix.names[a] < ix.names[b]
}

// pull re-derives t's subtree maximum from its own free vector and its
// children's maxima, reporting whether it changed.
func (ix *Index) pull(t int32) bool {
	nd := &ix.nodes[t]
	m := ix.free[t]
	if nd.left != none {
		m = m.Max(ix.sub[nd.left])
	}
	if nd.right != none {
		m = m.Max(ix.sub[nd.right])
	}
	if m == ix.sub[t] {
		return false
	}
	ix.sub[t] = m
	return true
}

// repull re-derives the subtree maxima on the root path to slot after
// its free vector changed at an unchanged key, stopping at the first
// ancestor whose maximum the change does not reach.
func (ix *Index) repull(slot int32) {
	path := ix.path[:0]
	for t := ix.root; t != slot; {
		path = append(path, t)
		if ix.before(slot, t) {
			t = ix.nodes[t].left
		} else {
			t = ix.nodes[t].right
		}
	}
	ix.path = path
	if !ix.pull(slot) {
		return
	}
	for i := len(path) - 1; i >= 0; i-- {
		if !ix.pull(path[i]) {
			return
		}
	}
}

// insert adds slot below t, rotating to restore the heap property. On
// the surplus family the new free vector is folded into every ancestor
// on the way down, and a rotation re-derives the demoted node's maximum
// (the promoted node inherits the whole subtree's).
func (ix *Index) insert(t, slot int32) int32 {
	if t == none {
		return slot
	}
	if ix.fit {
		ix.sub[t] = ix.sub[t].Max(ix.free[slot])
	}
	if ix.before(slot, t) {
		ix.nodes[t].left = ix.insert(ix.nodes[t].left, slot)
		if l := ix.nodes[t].left; ix.nodes[l].prio > ix.nodes[t].prio {
			t = ix.rotate(t, l)
		}
	} else {
		ix.nodes[t].right = ix.insert(ix.nodes[t].right, slot)
		if r := ix.nodes[t].right; ix.nodes[r].prio > ix.nodes[t].prio {
			t = ix.rotate(t, r)
		}
	}
	return t
}

// rotate promotes child c over its parent t and returns c. On the
// surplus family c takes over t's subtree maximum and t's is re-derived.
func (ix *Index) rotate(t, c int32) int32 {
	pt, pc := &ix.nodes[t], &ix.nodes[c]
	if pt.left == c {
		pt.left, pc.right = pc.right, t
	} else {
		pt.right, pc.left = pc.left, t
	}
	if ix.fit {
		ix.sub[c] = ix.sub[t]
		ix.pull(t)
	}
	return c
}

// remove deletes slot from below t by rotating it down to a leaf. On
// the surplus family every subtree root on the way back up re-derives
// its maximum, since a maximum cannot be un-folded.
func (ix *Index) remove(t, slot int32) int32 {
	nd := &ix.nodes[t]
	switch {
	case t == slot:
		switch {
		case nd.left == none:
			return nd.right
		case nd.right == none:
			return nd.left
		case ix.nodes[nd.left].prio > ix.nodes[nd.right].prio:
			t = ix.rotate(t, nd.left)
			ix.nodes[t].right = ix.remove(slot, slot)
		default:
			t = ix.rotate(t, nd.right)
			ix.nodes[t].left = ix.remove(slot, slot)
		}
	case ix.before(slot, t):
		nd.left = ix.remove(nd.left, slot)
	default:
		nd.right = ix.remove(nd.right, slot)
	}
	if ix.fit {
		ix.pull(t)
	}
	return t
}

// AscendFrom visits entries with key >= lower in ascending (key, name)
// order until visit returns false. Subtrees entirely below the bound are
// pruned, so a query that stops after k visits costs O(log n + k).
func (ix *Index) AscendFrom(lower float64, visit func(name string, key float64) bool) {
	ix.ascend(ix.root, lower, func(slot int32) bool {
		return visit(ix.names[slot], ix.nodes[slot].key)
	})
}

// ascend is the in-order walk behind AscendFrom and the predicate
// queries; it reports false once visit asked to stop.
func (ix *Index) ascend(t int32, lower float64, visit func(slot int32) bool) bool {
	for t != none {
		ix.touches++
		nd := &ix.nodes[t]
		if nd.key >= lower {
			// The left subtree may straddle the bound; the node itself is
			// in range.
			if !ix.ascend(nd.left, lower, visit) || !visit(t) {
				return false
			}
		}
		// Everything in the left subtree is <= this node, so when the
		// node is below the bound only the right subtree can still
		// qualify.
		t = nd.right
	}
	return true
}

// firstFitting is the predicate walk: the first slot in (key, name)
// order with key >= lower whose name passes fits, or none.
func (ix *Index) firstFitting(lower float64, fits func(name string) bool) int32 {
	found := none
	ix.ascend(ix.root, lower, func(slot int32) bool {
		if fits(ix.names[slot]) {
			found = slot
			return false
		}
		return true
	})
	return found
}

// FirstFitting returns the first entry in ascending (key, name) order
// with key >= lower that satisfies fits, walking every entry in between.
// It is the general form of FirstFit (and its test oracle): any index
// answers it, for any predicate.
func (ix *Index) FirstFitting(lower float64, fits func(name string) bool) (name string, key float64, ok bool) {
	slot := ix.firstFitting(lower, fits)
	if slot == none {
		return "", 0, false
	}
	return ix.names[slot], ix.nodes[slot].key, true
}

// firstFit is the pruned descent below t: the first slot in (key, name)
// order with key >= lower whose free vector holds size, or none.
func (ix *Index) firstFit(t int32, lower float64, size *resources.Vector) int32 {
	for t != none {
		ix.touches++
		if !size.FitsIn(ix.sub[t]) {
			return none // nothing in this subtree can hold size
		}
		nd := &ix.nodes[t]
		if nd.key >= lower {
			if r := ix.firstFit(nd.left, lower, size); r != none {
				return r
			}
			if size.FitsIn(ix.free[t]) {
				return t
			}
		}
		t = nd.right
	}
	return none
}

// FirstFit returns the ref of the first entry in ascending (key, name)
// order with key >= lower whose free vector holds size — the
// tightest-fit query one surplus index answers for its own servers,
// exactly FirstFitting with the predicate size.FitsIn(free). A miss is
// answered from the root's maximum alone when that cannot hold size.
// The index must come from NewFit.
func (ix *Index) FirstFit(lower float64, size resources.Vector) (ref int, ok bool) {
	if !ix.fit {
		panic("capindex: FirstFit on an index built by New")
	}
	slot := ix.firstFit(ix.root, lower, &size)
	if slot == none {
		return -1, false
	}
	return int(ix.nodes[slot].ref), true
}

// minAcross merges per-index answers: first(i, ix) is index i's first
// fitting slot, and the winner is the minimum (key, name) across them —
// exactly the entry a single combined index would have returned, because
// each index's first fitting entry is its minimum fitting entry and the
// (key, name) order is a total order over disjoint name sets. Nil
// indexes (a key no server has) are skipped.
func minAcross(indexes []*Index, first func(i int, ix *Index) int32) (*Index, int32) {
	var best *Index
	bestSlot := none
	for i, ix := range indexes {
		if ix == nil {
			continue
		}
		slot := first(i, ix)
		if slot == none {
			continue
		}
		if best == nil || less(ix.nodes[slot].key, ix.names[slot], best.nodes[bestSlot].key, best.names[bestSlot]) {
			best, bestSlot = ix, slot
		}
	}
	return best, bestSlot
}

// MinFit is the merged surplus query over disjoint indexes (one pool's
// hazard-band indexes): each index answers FirstFit for its own entries
// (with its own lower bound, so every index prunes by its own largest
// capacity), and the global winner is the minimum (key, name) across
// them. It returns the winner's
// ref. Every non-nil index must come from NewFit.
func MinFit(indexes []*Index, lowers []float64, size resources.Vector) (ref int, ok bool) {
	best, slot := minAcross(indexes, func(i int, ix *Index) int32 {
		if !ix.fit {
			panic("capindex: MinFit over an index built by New")
		}
		return ix.firstFit(ix.root, lowers[i], &size)
	})
	if best == nil {
		return -1, false
	}
	return int(best.nodes[slot].ref), true
}

// MinFitting is MinFit's predicate form: the minimum (key, name) across
// the indexes' FirstFitting answers.
func MinFitting(indexes []*Index, lowers []float64, fits func(name string) bool) (string, float64, bool) {
	best, slot := minAcross(indexes, func(i int, ix *Index) int32 {
		return ix.firstFitting(lowers[i], fits)
	})
	if best == nil {
		return "", 0, false
	}
	return best.names[slot], best.nodes[slot].key, true
}

// Min returns the smallest (key, name) entry.
func (ix *Index) Min() (name string, key float64, ok bool) {
	t := ix.root
	if t == none {
		return "", 0, false
	}
	for ix.nodes[t].left != none {
		t = ix.nodes[t].left
	}
	return ix.names[t], ix.nodes[t].key, true
}

// DescIter iterates an Index in descending (key, name) order — the
// best-first order of a bound-keyed pressure index, where key is an
// upper bound on any demand's achievable fitness and the scan wants the
// loosest bound first. The iterator owns a reusable explicit stack (the
// right spine of the subtrees still to visit), so steady-state scans
// are allocation-free once the stack has grown to the tree height.
//
// The iterator reads the treap in place: it is valid only while the
// index is not mutated (Set/Upsert/Delete invalidate it). The cluster
// manager guarantees this by syncing dirty servers before a scan and
// never mutating index keys mid-scan — failed placement probes leave
// host state untouched.
type DescIter struct {
	ix    *Index
	stack []int32
}

// Reset points the iterator at ix's maximum (key, name) entry.
func (it *DescIter) Reset(ix *Index) {
	it.ix = ix
	it.stack = it.stack[:0]
	for t := ix.root; t != none; t = ix.nodes[t].right {
		it.stack = append(it.stack, t)
	}
}

// Peek returns the current entry without advancing.
func (it *DescIter) Peek() (name string, key float64, ok bool) {
	if len(it.stack) == 0 {
		return "", 0, false
	}
	t := it.stack[len(it.stack)-1]
	return it.ix.names[t], it.ix.nodes[t].key, true
}

// Ref returns the current entry's ref; call it only after Peek reported
// an entry.
func (it *DescIter) Ref() int {
	return int(it.ix.nodes[it.stack[len(it.stack)-1]].ref)
}

// Next advances past the current entry. Popping a node exposes its
// in-order predecessor: the maximum of its left subtree (that subtree's
// right spine is pushed), or the node below it on the stack.
func (it *DescIter) Next() {
	if len(it.stack) == 0 {
		return
	}
	t := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	for c := it.ix.nodes[t].left; c != none; c = it.ix.nodes[c].right {
		it.stack = append(it.stack, c)
	}
}

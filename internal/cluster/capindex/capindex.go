// Package capindex is the cluster manager's incremental capacity index:
// the data structures that turn per-arrival O(servers × domains) scans
// into O(log servers) ordered-index queries.
//
// # Architecture
//
// The package provides two pieces, both deliberately ignorant of the
// cluster types that use them:
//
//   - Index — an ordered set of servers keyed by (key, name), where key
//     is the server's dominant free share (max over dimensions of
//     free/capacity). It is a treap whose heap priorities are derived
//     deterministically from the server name (FNV-1a), so the tree shape
//     — and therefore iteration cost — depends only on the inserted set,
//     never on insertion order or a random source. AscendFrom iterates
//     entries in ascending (key, name) order starting at a key lower
//     bound, pruning whole subtrees below the bound; a tightest-fit
//     surplus query visits the fitting server with the smallest free
//     share first.
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
// Ties on key are broken by name everywhere (Less, AscendFrom, Min), so
// an index query returns the same server as a brute-force linear scan
// that applies the same (key, name) minimisation — the property the
// cluster package's differential suite asserts bit-for-bit. Drain
// returns names sorted so that delta updates to cluster-wide totals are
// applied in one fixed order regardless of callback arrival order.
package capindex

import (
	"hash/fnv"
	"sort"
	"sync"
)

// node is one treap node: BST-ordered by (key, name), heap-ordered by
// prio.
type node struct {
	key         float64
	name        string
	prio        uint64
	left, right *node
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

// priorityOf derives a node's deterministic heap priority from its name.
func priorityOf(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Index is an ordered set of (name, key) entries supporting O(log n)
// upsert and ordered iteration from a key lower bound. Not safe for
// concurrent use; the cluster manager serialises access under its own
// lock.
type Index struct {
	root *node
	keys map[string]float64
}

// New returns an empty index.
func New() *Index {
	return &Index{keys: make(map[string]float64)}
}

// Len returns the number of entries.
func (ix *Index) Len() int { return len(ix.keys) }

// Key returns the entry's current key and whether it is present.
func (ix *Index) Key(name string) (float64, bool) {
	k, ok := ix.keys[name]
	return k, ok
}

// Upsert inserts the entry or moves it to a new key. A same-key upsert
// is a no-op.
func (ix *Index) Upsert(name string, key float64) {
	if old, ok := ix.keys[name]; ok {
		if old == key {
			return
		}
		ix.root = remove(ix.root, old, name)
	}
	ix.keys[name] = key
	ix.root = insert(ix.root, &node{key: key, name: name, prio: priorityOf(name)})
}

// Delete removes the entry if present.
func (ix *Index) Delete(name string) {
	old, ok := ix.keys[name]
	if !ok {
		return
	}
	delete(ix.keys, name)
	ix.root = remove(ix.root, old, name)
}

// AscendFrom visits entries with key >= lower in ascending (key, name)
// order until visit returns false. Subtrees entirely below the bound are
// pruned, so a query that stops after k visits costs O(log n + k).
func (ix *Index) AscendFrom(lower float64, visit func(name string, key float64) bool) {
	ascend(ix.root, lower, visit)
}

// FirstFitting returns the first entry in ascending (key, name) order
// with key >= lower that satisfies fits — the tightest-fit query one
// index answers for its own servers. The partitioned placement engine
// gives each placement partition its own Index; MinFitting merges their
// answers.
func (ix *Index) FirstFitting(lower float64, fits func(name string) bool) (name string, key float64, ok bool) {
	ix.AscendFrom(lower, func(n string, k float64) bool {
		if fits(n) {
			name, key, ok = n, k, true
			return false
		}
		return true
	})
	return name, key, ok
}

// MinFitting is the merged best-of-partitions query: each index answers
// FirstFitting for its own entries (with its own lower bound, so every
// partition prunes by its own largest capacity), and the global winner
// is the minimum (key, name) across partitions — exactly the entry a
// single combined index would have returned, because each partition's
// first fitting entry is its minimum fitting entry and the (key, name)
// order is a total order over disjoint name sets.
func MinFitting(indexes []*Index, lowers []float64, fits func(name string) bool) (string, float64, bool) {
	var (
		bestName string
		bestKey  float64
		found    bool
	)
	for i, ix := range indexes {
		if ix == nil {
			continue
		}
		n, k, ok := ix.FirstFitting(lowers[i], fits)
		if !ok {
			continue
		}
		if !found || less(k, n, bestKey, bestName) {
			bestName, bestKey, found = n, k, true
		}
	}
	return bestName, bestKey, found
}

// DescIter iterates an Index in descending (key, name) order — the
// best-first order of a bound-keyed pressure index, where key is an
// upper bound on any demand's achievable fitness and the scan wants the
// loosest bound first. The iterator owns a reusable explicit stack (the
// right spine of the subtrees still to visit), so steady-state scans
// are allocation-free once the stack has grown to the tree height.
//
// The iterator reads the treap in place: it is valid only while the
// index is not mutated (Upsert/Delete invalidate it). The cluster
// manager guarantees this by syncing dirty servers before a scan and
// never mutating index keys mid-scan — failed placement probes leave
// host state untouched.
type DescIter struct {
	stack []*node
}

// Reset points the iterator at ix's maximum (key, name) entry.
func (it *DescIter) Reset(ix *Index) {
	it.stack = it.stack[:0]
	for n := ix.root; n != nil; n = n.right {
		it.stack = append(it.stack, n)
	}
}

// Peek returns the current entry without advancing.
func (it *DescIter) Peek() (name string, key float64, ok bool) {
	if len(it.stack) == 0 {
		return "", 0, false
	}
	n := it.stack[len(it.stack)-1]
	return n.name, n.key, true
}

// Next advances past the current entry. Popping a node exposes its
// in-order predecessor: the maximum of its left subtree (that subtree's
// right spine is pushed), or the node below it on the stack.
func (it *DescIter) Next() {
	if len(it.stack) == 0 {
		return
	}
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	for c := n.left; c != nil; c = c.right {
		it.stack = append(it.stack, c)
	}
}

// Min returns the smallest (key, name) entry.
func (ix *Index) Min() (name string, key float64, ok bool) {
	n := ix.root
	if n == nil {
		return "", 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.name, n.key, true
}

// insert adds nd below root, rotating to restore the heap property.
func insert(root, nd *node) *node {
	if root == nil {
		return nd
	}
	if less(nd.key, nd.name, root.key, root.name) {
		root.left = insert(root.left, nd)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = insert(root.right, nd)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

// remove deletes the (key, name) node by rotating it down to a leaf.
func remove(root *node, key float64, name string) *node {
	if root == nil {
		return nil
	}
	switch {
	case key == root.key && name == root.name:
		switch {
		case root.left == nil:
			return root.right
		case root.right == nil:
			return root.left
		case root.left.prio > root.right.prio:
			root = rotateRight(root)
			root.right = remove(root.right, key, name)
		default:
			root = rotateLeft(root)
			root.left = remove(root.left, key, name)
		}
	case less(key, name, root.key, root.name):
		root.left = remove(root.left, key, name)
	default:
		root.right = remove(root.right, key, name)
	}
	return root
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// ascend reports false once visit asked to stop.
func ascend(n *node, lower float64, visit func(string, float64) bool) bool {
	if n == nil {
		return true
	}
	if n.key >= lower {
		// The left subtree may straddle the bound; the node itself is in
		// range.
		if !ascend(n.left, lower, visit) {
			return false
		}
		if !visit(n.name, n.key) {
			return false
		}
	}
	// Everything in the left subtree is <= this node, so when the node is
	// below the bound only the right subtree can still qualify.
	return ascend(n.right, lower, visit)
}

// DirtySet collects the names of servers whose cached aggregates are
// stale. Mark is safe to call from hypervisor aggregate-change callbacks
// (it takes only the set's own mutex, a leaf in the lock order); Drain
// empties the set and returns the names sorted, so refresh work — and
// any float arithmetic it performs — happens in one deterministic order.
//
// Storage is dense, so a drain costs O(dirty log dirty) whatever the
// fleet size: each name gets a small integer id the first time it is
// marked (the registry is written once per name and never cleared), a
// per-id bit records membership, and the ids marked since the last
// drain queue in pending. Drain visits only the pending ids.
type DirtySet struct {
	mu      sync.Mutex
	ids     map[string]int32 // name → id, append-only
	names   []string         // id → name
	marked  []bool           // id → currently in the set
	pending []int32          // marked ids, in Mark order
	// buf is the reusable drain buffer: the set has a single consumer
	// (the cluster manager, under its own lock), so Drain can hand back
	// the same backing array every time and the per-query refresh stays
	// allocation-free between bursts of churn.
	buf []string
}

// NewDirtySet returns an empty set.
func NewDirtySet() *DirtySet {
	return &DirtySet{ids: make(map[string]int32)}
}

// Mark adds name to the set.
func (s *DirtySet) Mark(name string) {
	s.mu.Lock()
	id, ok := s.ids[name]
	if !ok {
		id = int32(len(s.names))
		s.ids[name] = id
		s.names = append(s.names, name)
		s.marked = append(s.marked, false)
	}
	if !s.marked[id] {
		s.marked[id] = true
		s.pending = append(s.pending, id)
	}
	s.mu.Unlock()
}

// Len returns the number of marked names.
func (s *DirtySet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Drain removes and returns all marked names in sorted order. It returns
// nil when nothing is dirty, so hot paths can skip refresh work without
// allocating. The returned slice is backed by the set's reusable buffer
// and is valid only until the next Drain.
func (s *DirtySet) Drain() []string {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return nil
	}
	out := s.buf[:0]
	for _, id := range s.pending {
		s.marked[id] = false
		out = append(out, s.names[id])
	}
	s.pending = s.pending[:0]
	s.buf = out
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

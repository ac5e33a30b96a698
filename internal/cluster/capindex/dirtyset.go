package capindex

import (
	"sort"
	"sync"
)

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

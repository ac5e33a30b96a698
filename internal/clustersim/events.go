package clustersim

import (
	"container/heap"
	"slices"

	"vmdeflate/internal/trace"
)

// eventKind orders simultaneous events. Samples fire first so metering
// observes the population as it stood through the preceding interval;
// departures precede capacity shocks so a VM that leaves at the shock
// instant is not pointlessly evacuated (and its freed capacity is
// available to the evacuees); restorations precede revocations so a
// same-instant restore+revoke pair frees the returning capacity before
// the evacuation that needs it — and so back-to-back outages of one
// server (restore and re-revoke at the same instant, which the
// generators' admission sweep can legally produce) replay as two
// outages instead of silently dropping the second; resizes follow
// revocations so their displaced VMs never land on a server revoked at
// the same instant; and every shock precedes the arrivals so newcomers
// only ever see post-shock capacity (the invariant the old slice-based
// replay encoded in its sort comparator, extended to the
// transient-server events).
type eventKind int

const (
	evSample eventKind = iota
	evDeparture
	evRestore
	evRevoke
	evResize
	evArrival
)

// String names the kind for test failure messages.
func (k eventKind) String() string {
	switch k {
	case evSample:
		return "sample"
	case evDeparture:
		return "departure"
	case evRevoke:
		return "revoke"
	case evRestore:
		return "restore"
	case evResize:
		return "resize"
	case evArrival:
		return "arrival"
	default:
		return "eventKind(?)"
	}
}

// simEvent is one scheduled simulation event. vm is nil for samples and
// capacity shocks; shock is nil for everything else.
type simEvent struct {
	at   float64
	kind eventKind
	vm   *trace.VMRecord
	// shock carries the capacity-shock payload of
	// evRevoke/evRestore/evResize events.
	shock *trace.CapacityShock
	// seq breaks ties among equal (at, kind) pairs. Arrival and
	// departure events carry the VM's trace index, shock events their
	// schedule index, so simultaneous events replay in trace order — the
	// same total order the previous implementation obtained from a
	// stable sort over the trace slice, which keeps refactored runs
	// bit-for-bit comparable.
	seq int
}

// eventLess is the strict total event order: (time, kind, seq), with
// the kind ranking documented on eventKind. Every queue implementation
// delivers exactly this order, which is what lets them substitute for
// one another without perturbing a single result bit.
func eventLess(a, b simEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event set: push schedules, pop/peek deliver
// in (time, kind, seq) order. Two interchangeable live-set
// implementations exist — heapQueue (container/heap, the original and
// the property-test reference) and calendarQueue (O(1) amortized, the
// default) — and a run drives a sourceQueue, which overlays the input's
// pre-sorted arrivals on one of them. Departures are only scheduled for
// VMs that were actually admitted and samples reschedule themselves, so
// the live set stays proportional to the pending horizon rather than
// the whole trace.
type eventQueue interface {
	// push schedules an event.
	push(simEvent)
	// pop removes and returns the next event in (time, kind, seq) order.
	pop() simEvent
	// peek returns the next event without removing it. Callers must
	// check empty() first. The engine uses it to coalesce runs of
	// same-timestamp departures/arrivals/revocations into one batch.
	peek() simEvent
	// empty reports whether any events remain.
	empty() bool
}

// heapQueue is the container/heap-backed eventQueue: O(log n) push/pop.
// It remains as the differential reference for calendarQueue (see
// Config.useHeapQueue and the randomized property test) — any ordering
// bug in the calendar shows up as a bit-level divergence against it.
type heapQueue struct {
	evs []simEvent
}

// Len, Less, Swap, Push and Pop implement heap.Interface; the ordering
// is eventLess.
func (q *heapQueue) Len() int { return len(q.evs) }

func (q *heapQueue) Less(i, j int) bool { return eventLess(q.evs[i], q.evs[j]) }

func (q *heapQueue) Swap(i, j int) { q.evs[i], q.evs[j] = q.evs[j], q.evs[i] }

func (q *heapQueue) Push(x any) { q.evs = append(q.evs, x.(simEvent)) }

func (q *heapQueue) Pop() any {
	old := q.evs
	n := len(old)
	e := old[n-1]
	q.evs = old[:n-1]
	return e
}

func (q *heapQueue) push(e simEvent) { heap.Push(q, e) }

func (q *heapQueue) pop() simEvent { return heap.Pop(q).(simEvent) }

func (q *heapQueue) peek() simEvent { return q.evs[0] }

func (q *heapQueue) empty() bool { return len(q.evs) == 0 }

// sourceChunkShift sizes the arrival-order chunks: 1<<20 arrivals
// (4 MB of int32) per chunk, released as soon as the scan moves past
// them, so the retained arrival column shrinks toward zero as the run
// progresses instead of pinning 4 bytes per trace VM to the end.
const sourceChunkShift = 20

// sourceQueue is every run's eventQueue: arrivals come from the
// geometry's sorted arrival order, their records fetched from the
// vmSource one VM at a time as the simulation reaches them, while
// departures, samples and shocks live in an inner queue sized to the
// live set. The arrival order is held in chunks whose consumed prefix
// is freed incrementally, so peak queue memory is the unconsumed
// arrival suffix plus O(live events) — never an N-deep event set.
type sourceQueue struct {
	src    vmSource
	chunks [][]int32 // arrival order; consumed chunks are nilled
	next   int       // next unfetched absolute position
	total  int
	headOK bool
	head   simEvent // the fetched next arrival
	inner  eventQueue
}

// newSourceQueue copies byStart (the geometry's arrival order) into
// releasable chunks; the caller's slice can then be dropped with the
// rest of the geometry.
func newSourceQueue(src vmSource, byStart []int32, inner eventQueue) *sourceQueue {
	q := &sourceQueue{src: src, total: len(byStart), inner: inner}
	for chunk := range slices.Chunk(byStart, 1<<sourceChunkShift) {
		q.chunks = append(q.chunks, slices.Clone(chunk))
	}
	return q
}

// ensureHead fetches the next pending arrival, if any, releasing each
// arrival-order chunk as the scan leaves it.
func (q *sourceQueue) ensureHead() {
	if q.headOK || q.next >= q.total {
		return
	}
	const mask = 1<<sourceChunkShift - 1
	c := q.next >> sourceChunkShift
	idx := int(q.chunks[c][q.next&mask])
	q.next++
	if q.next&mask == 0 || q.next >= q.total {
		q.chunks[c] = nil
	}
	vm := q.src.record(idx)
	q.head = simEvent{at: vm.Start, kind: evArrival, vm: vm, seq: idx}
	q.headOK = true
}

func (q *sourceQueue) empty() bool {
	return !q.headOK && q.next >= q.total && q.inner.empty()
}

func (q *sourceQueue) push(e simEvent) {
	// The engine never schedules arrivals — they exist only in the
	// source — so everything pushed belongs to the live-set queue.
	q.inner.push(e)
}

func (q *sourceQueue) peek() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.peek()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		return q.head
	}
	return q.inner.peek()
}

func (q *sourceQueue) pop() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.pop()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		q.headOK = false
		return q.head
	}
	return q.inner.pop()
}

package clustersim

import (
	"reflect"
	"testing"

	"vmdeflate/internal/trace"
)

// popAll drains the queue.
func popAll(q eventQueue) []simEvent {
	var out []simEvent
	for !q.empty() {
		out = append(out, q.pop())
	}
	return out
}

// queueImpls enumerates the interchangeable eventQueue implementations;
// every ordering test runs against each.
func queueImpls() map[string]func() eventQueue {
	return map[string]func() eventQueue{
		"heap":     func() eventQueue { return &heapQueue{} },
		"calendar": func() eventQueue { return newCalendarQueue(4, 1000) },
	}
}

func TestEventQueueOrdering(t *testing.T) {
	vm := func(id string) *trace.VMRecord { return &trace.VMRecord{ID: id} }
	cases := []struct {
		name string
		push []simEvent
		want []simEvent
	}{
		{
			name: "time ordering regardless of push order",
			push: []simEvent{
				{at: 300, kind: evArrival, vm: vm("c"), seq: 2},
				{at: 100, kind: evArrival, vm: vm("a"), seq: 0},
				{at: 200, kind: evDeparture, vm: vm("a"), seq: 0},
				{at: 150, kind: evSample},
			},
			want: []simEvent{
				{at: 100, kind: evArrival, vm: vm("a"), seq: 0},
				{at: 150, kind: evSample},
				{at: 200, kind: evDeparture, vm: vm("a"), seq: 0},
				{at: 300, kind: evArrival, vm: vm("c"), seq: 2},
			},
		},
		{
			name: "departure before arrival at equal timestamps",
			push: []simEvent{
				{at: 500, kind: evArrival, vm: vm("new"), seq: 7},
				{at: 500, kind: evDeparture, vm: vm("old"), seq: 3},
			},
			want: []simEvent{
				{at: 500, kind: evDeparture, vm: vm("old"), seq: 3},
				{at: 500, kind: evArrival, vm: vm("new"), seq: 7},
			},
		},
		{
			name: "sample precedes departure and arrival at equal timestamps",
			push: []simEvent{
				{at: 600, kind: evArrival, vm: vm("n"), seq: 4},
				{at: 600, kind: evSample},
				{at: 600, kind: evDeparture, vm: vm("o"), seq: 1},
			},
			want: []simEvent{
				{at: 600, kind: evSample},
				{at: 600, kind: evDeparture, vm: vm("o"), seq: 1},
				{at: 600, kind: evArrival, vm: vm("n"), seq: 4},
			},
		},
		{
			name: "trace-index tie-break within one kind",
			push: []simEvent{
				{at: 900, kind: evArrival, vm: vm("later"), seq: 9},
				{at: 900, kind: evArrival, vm: vm("earlier"), seq: 2},
				{at: 900, kind: evArrival, vm: vm("middle"), seq: 5},
			},
			want: []simEvent{
				{at: 900, kind: evArrival, vm: vm("earlier"), seq: 2},
				{at: 900, kind: evArrival, vm: vm("middle"), seq: 5},
				{at: 900, kind: evArrival, vm: vm("later"), seq: 9},
			},
		},
		{
			name: "sample interleaving across event times",
			push: []simEvent{
				{at: 300, kind: evSample},
				{at: 250, kind: evArrival, vm: vm("a"), seq: 0},
				{at: 350, kind: evDeparture, vm: vm("a"), seq: 0},
				{at: 600, kind: evSample},
				{at: 600, kind: evArrival, vm: vm("b"), seq: 1},
			},
			want: []simEvent{
				{at: 250, kind: evArrival, vm: vm("a"), seq: 0},
				{at: 300, kind: evSample},
				{at: 350, kind: evDeparture, vm: vm("a"), seq: 0},
				{at: 600, kind: evSample},
				{at: 600, kind: evArrival, vm: vm("b"), seq: 1},
			},
		},
	}
	for implName, mk := range queueImpls() {
		for _, tc := range cases {
			t.Run(implName+"/"+tc.name, func(t *testing.T) {
				q := mk()
				for _, e := range tc.push {
					q.push(e)
				}
				got := popAll(q)
				if len(got) != len(tc.want) {
					t.Fatalf("popped %d events, want %d", len(got), len(tc.want))
				}
				for i, g := range got {
					w := tc.want[i]
					if g.at != w.at || g.kind != w.kind || g.seq != w.seq {
						t.Errorf("event[%d] = (t=%g %v seq=%d), want (t=%g %v seq=%d)",
							i, g.at, g.kind, g.seq, w.at, w.kind, w.seq)
					}
					if (g.vm == nil) != (w.vm == nil) || (g.vm != nil && g.vm.ID != w.vm.ID) {
						t.Errorf("event[%d] vm mismatch", i)
					}
				}
			})
		}
	}
}

// TestSourceQueueArrivalOrder pins the one arrival queue, over both
// inner queues: arrivals pop in (time, trace index) order with seq the
// trace index, matching the outright sort, and a streamed source pops
// the same arrival sequence as its materialised form.
func TestSourceQueueArrivalOrder(t *testing.T) {
	util := []float64{50}
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "late", Cores: 1, Start: 500, End: 600, CPUUtil: util},
		{ID: "tied-b", Cores: 1, Start: 100, End: 300, CPUUtil: util},
		{ID: "tied-c", Cores: 1, Start: 100, End: 300, CPUUtil: util},
		{ID: "early", Cores: 1, Start: 0, End: 200, CPUUtil: util},
	}}
	s, err := trace.NewStream(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 300, Duration: 86400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range queueImpls() {
		arrivals := func(src vmSource) []simEvent {
			g, err := newGeometry(src, false)
			if err != nil {
				t.Fatal(err)
			}
			return popAll(newSourceQueue(src, g.byStart, mk()))
		}
		got := arrivals(traceSource{tr.VMs})
		wantIDs := []string{"early", "tied-b", "tied-c", "late"}
		if len(got) != len(wantIDs) {
			t.Fatalf("%s: events = %d, want %d", name, len(got), len(wantIDs))
		}
		for i, e := range got {
			if e.kind != evArrival || e.vm.ID != wantIDs[i] || e.vm != tr.VMs[e.seq] {
				t.Errorf("%s: event[%d] = %v %s seq=%d, want the trace's own arrival record of %s",
					name, i, e.kind, e.vm.ID, e.seq, wantIDs[i])
			}
		}
		// seq must be the trace index so equal-time events replay in
		// trace order: tied-b (index 1) before tied-c (index 2).
		if got[1].seq != 1 || got[2].seq != 2 {
			t.Errorf("%s: tie seqs = %d,%d, want 1,2", name, got[1].seq, got[2].seq)
		}

		eager := s.Materialize()
		var want []refEvent
		for _, e := range refEventOrder(eager) {
			if e.arrival {
				want = append(want, e)
			}
		}
		for srcName, src := range map[string]vmSource{"eager": traceSource{eager.VMs}, "streamed": &streamSource{s: s}} {
			evs := arrivals(src)
			if len(evs) != len(want) {
				t.Fatalf("%s/%s: %d arrivals, want %d", name, srcName, len(evs), len(want))
			}
			for i, e := range evs {
				if e.at != want[i].at || e.seq != want[i].idx || e.vm.ID != eager.VMs[e.seq].ID {
					t.Fatalf("%s/%s: arrival[%d] = (t=%g seq=%d), want (t=%g seq=%d)",
						name, srcName, i, e.at, e.seq, want[i].at, want[i].idx)
				}
			}
		}
	}
}

// TestEngineMatchesMergeWalkReplay replays a trace through the engine
// and recounts its arrivals along the merge walk, which must itself
// match the outright (time, departures-first, index) sort: the engine
// must process every arrival the walk replays, and admission
// bookkeeping must close.
func TestEngineMatchesMergeWalkReplay(t *testing.T) {
	tr := testTrace(250)
	got, err := Run(Config{Trace: tr, Overcommit: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	walk := walkEvents(t, traceSource{tr.VMs})
	if !reflect.DeepEqual(walk, refEventOrder(tr)) {
		t.Fatal("merge walk diverges from the outright sort")
	}
	arrivals := 0
	for _, e := range walk {
		if e.arrival {
			arrivals++
		}
	}
	if got.Arrivals != arrivals {
		t.Errorf("engine processed %d arrivals, trace has %d", got.Arrivals, arrivals)
	}
	if got.Admitted+got.Rejected != got.Arrivals {
		t.Errorf("admission bookkeeping: %d + %d != %d", got.Admitted, got.Rejected, got.Arrivals)
	}
}

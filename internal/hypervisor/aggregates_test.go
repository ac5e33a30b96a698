package hypervisor

import (
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/resources"
)

// freshAggregates recomputes the host's aggregates from scratch, walking
// domains in name order — the oracle the cached value must match
// bit-for-bit after any operation sequence.
func freshAggregates(h *Host) Aggregates {
	var a Aggregates
	for _, d := range h.Domains() { // Domains() is sorted by name
		a.Committed = a.Committed.Add(d.Config().Size)
		if d.State() != Running {
			continue
		}
		a.Running++
		alloc := d.Allocation()
		a.Allocated = a.Allocated.Add(alloc)
		if !d.Deflatable() {
			continue
		}
		a.DeflatableReserve = a.DeflatableReserve.Add(alloc.Sub(d.Floor()).ClampNonNegative())
		if alloc.DeflationFraction(d.Config().Size) > 0 {
			a.Deflated++
		}
	}
	return a
}

func checkAggregates(t *testing.T, h *Host, op string) {
	t.Helper()
	got, want := h.Aggregates(), freshAggregates(h)
	if got != want {
		t.Fatalf("after %s: cached aggregates diverged from fresh recompute:\n got %+v\nwant %+v", op, got, want)
	}
}

// TestAggregatesMatchFreshRecompute is the cache-coherence property
// test: after every operation of a long randomized define / start /
// limit / hotplug / clear / shutdown / undefine sequence, the cached
// aggregates must equal a fresh name-order recomputation exactly — the
// invariant that lets the cluster layer treat cached reads and fresh
// walks as interchangeable, bit for bit.
func TestAggregatesMatchFreshRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := testHost(t)
	var live []string
	next := 0

	for op := 0; op < 3000; op++ {
		var opName string
		switch k := rng.Intn(10); {
		case k <= 2 || len(live) == 0: // define + maybe start
			name := fmt.Sprintf("vm-%04d", next)
			next++
			cfg := DomainConfig{
				Name:       name,
				Size:       resources.New(float64(1+rng.Intn(16)), float64(1024*(1+rng.Intn(16))), 0, 0),
				Deflatable: rng.Intn(3) != 0,
				Priority:   0.25 * float64(1+rng.Intn(4)),
			}
			if rng.Intn(4) == 0 {
				cfg.MinAllocation = cfg.Size.Scale(0.25)
			}
			d, err := h.Define(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) != 0 {
				if err := d.Start(); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, name)
			opName = "define " + name
		case k <= 5: // transparent limit change / clear
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				d.ClearTransparentLimits()
				opName = "clear " + name
			} else {
				frac := 0.3 + 0.7*rng.Float64()
				d.SetCPUShares(d.MaxSize().Get(resources.CPU) * frac)
				d.SetMemoryLimit(d.MaxSize().Get(resources.Memory) * frac)
				opName = "limit " + name
			}
		case k <= 7: // hotplug churn (only running domains accept it)
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				d.HotUnplugVCPUs(1 + rng.Intn(4))
				d.HotUnplugMemory(float64(512 * (1 + rng.Intn(4))))
			} else {
				d.HotPlugVCPUs(1 + rng.Intn(4))
				d.HotPlugMemory(float64(512 * (1 + rng.Intn(4))))
			}
			opName = "hotplug " + name
		case k == 8: // lifecycle flip
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.State() == Running {
				d.Shutdown()
			} else {
				d.Start()
			}
			opName = "flip " + name
		default: // undefine (stopping first if needed)
			i := rng.Intn(len(live))
			name := live[i]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.State() == Running {
				d.Shutdown()
			}
			if err := h.Undefine(name); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			opName = "undefine " + name
		}
		checkAggregates(t, h, opName)
	}
}

// TestAggregatesConvenienceAccessors keeps Committed/Allocated/Available
// consistent with the aggregate snapshot they are served from.
func TestAggregatesConvenienceAccessors(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 8, 16384)
	d := defineRunning(t, h, "b", 4, 8192)
	d.SetCPUShares(2)

	agg := h.Aggregates()
	if h.Committed() != agg.Committed || h.Allocated() != agg.Allocated {
		t.Error("accessors disagree with Aggregates()")
	}
	if agg.Running != 2 || agg.Deflated != 1 {
		t.Errorf("running/deflated = %d/%d, want 2/1", agg.Running, agg.Deflated)
	}
	if got := h.Available(); got != h.Capacity().Sub(agg.Allocated).ClampNonNegative() {
		t.Errorf("Available = %v", got)
	}
}

// TestOnAggregateChange checks the callback fires for every mutation
// class the cluster layer relies on for dirty tracking. Notifications
// are edge-triggered — one per clean-to-stale transition — so the test
// re-arms the edge with an Aggregates() read before every mutation.
func TestOnAggregateChange(t *testing.T) {
	h := testHost(t)
	fires := 0
	h.OnAggregateChange(func() { fires++ })

	d, err := h.Define(DomainConfig{Name: "vm", Size: resources.New(4, 8192, 0, 0), Deflatable: true, Priority: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		op   func()
	}{
		{"start", func() { d.Start() }},
		{"setlimit", func() { d.SetCPUShares(2) }},
		{"clear", func() { d.ClearTransparentLimits() }},
		{"unplug", func() { d.HotUnplugVCPUs(1) }},
		{"plug", func() { d.HotPlugVCPUs(1) }},
		{"unplugmem", func() { d.HotUnplugMemory(1024) }},
		{"plugmem", func() { d.HotPlugMemory(1024) }},
		{"shutdown", func() { d.Shutdown() }},
		{"undefine", func() { h.Undefine("vm") }},
	}
	if fires == 0 {
		t.Error("define did not fire the callback")
	}
	for _, s := range steps {
		h.Aggregates() // refresh the cache, re-arming the edge
		before := fires
		s.op()
		if fires == before {
			t.Errorf("%s did not fire the callback", s.name)
		}
	}

	// While the cache is already stale, further mutations coalesce into
	// the pending notification.
	h.Aggregates()
	d2, err := h.Define(DomainConfig{Name: "vm2", Size: resources.New(4, 8192, 0, 0), Deflatable: true, Priority: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before := fires
	if err := d2.Start(); err != nil { // cache still stale from Define
		t.Fatal(err)
	}
	d2.SetCPUShares(2)
	if fires != before {
		t.Errorf("stale-cache mutations should coalesce: %d extra fires", fires-before)
	}

	// Unregistering stops delivery.
	h.Aggregates()
	h.OnAggregateChange(nil)
	before = fires
	if _, err := h.Define(DomainConfig{Name: "vm3", Size: resources.New(1, 1024, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if fires != before {
		t.Error("callback fired after unregistering")
	}
}

// TestFloorHelpers pins the floor definitions the cluster policies and
// host reserve aggregate share.
func TestFloorHelpers(t *testing.T) {
	if DefaultFloor() != resources.New(0.05, 64, 0, 0) {
		t.Errorf("DefaultFloor = %v", DefaultFloor())
	}
	small := DomainConfig{Name: "s", Size: resources.New(0.01, 32, 0, 0)}
	if got := small.Floor(); got != resources.New(0.01, 32, 0, 0) {
		t.Errorf("floor capped by size = %v", got)
	}
	withMin := DomainConfig{
		Name:          "m",
		Size:          resources.New(8, 16384, 0, 0),
		MinAllocation: resources.New(2, 4096, 0, 0),
	}
	if got := withMin.Floor(); got != withMin.MinAllocation {
		t.Errorf("explicit min floor = %v", got)
	}
	h := testHost(t)
	d := defineRunning(t, h, "d", 8, 16384)
	if d.Floor() != d.Config().Floor() {
		t.Error("Domain.Floor disagrees with DomainConfig.Floor")
	}
}

// TestSetOfferedLoadIsViewOnly pins the load contract: offered load
// feeds only the deflatable view, so reporting it fires no
// aggregate-change callback, leaves Aggregates() bit-equal without a
// re-walk, and the next view read carries the new Load — patched in
// place, also without a walk.
func TestSetOfferedLoadIsViewOnly(t *testing.T) {
	h := testHost(t)
	a := defineRunning(t, h, "a", 8, 16384)
	b := defineRunning(t, h, "b", 4, 8192)
	defineRunning(t, h, "c", 2, 4096)
	if err := b.SetCPUShares(2); err != nil {
		t.Fatal(err)
	}
	fires := 0
	h.OnAggregateChange(func() { fires++ })
	agg := h.Aggregates()
	h.AppendDeflatableView(nil, nil)
	walks := h.walks

	a.SetOfferedLoad(3.5)
	b.SetOfferedLoad(1.25)
	if fires != 0 {
		t.Errorf("load change fired the aggregate callback %d times", fires)
	}
	if got := h.Aggregates(); got != agg {
		t.Errorf("aggregates moved on a load change:\n got %+v\nwant %+v", got, agg)
	}
	if h.walks != walks {
		t.Errorf("Aggregates() re-walked the host after a load-only change")
	}
	states, doms := h.AppendDeflatableView(nil, nil)
	if h.walks != walks {
		t.Errorf("view read re-walked the host after a load-only change")
	}
	want := map[string]float64{"a": 3.5, "b": 1.25, "c": 0}
	for i, s := range states {
		if s.Load != want[s.Name] || doms[i].OfferedLoad() != s.Load {
			t.Errorf("view state %s has Load %g, want %g", s.Name, s.Load, want[s.Name])
		}
	}

	// The patched view equals a full rebuild.
	b.ClearTransparentLimits()
	b.SetCPUShares(2) // same allocation as before, through a real mutation
	rebuilt, _ := h.AppendDeflatableView(nil, nil)
	if h.walks != walks+1 {
		t.Fatalf("allocation change did not rebuild the view (walks %d -> %d)", walks, h.walks)
	}
	if fmt.Sprint(rebuilt) != fmt.Sprint(states) {
		t.Errorf("patched view differs from a rebuild:\n got %+v\nwant %+v", states, rebuilt)
	}

	// Re-reporting an unchanged load flags nothing.
	a.SetOfferedLoad(3.5)
	if h.loadDirty.Load() {
		t.Error("unchanged load flagged the view stale")
	}
}

package hypervisor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// freshView rebuilds the deflatable VM-state view from scratch through
// the public Domains() walk — the oracle the cached view must match
// bit-for-bit after any operation sequence.
func freshView(h *Host) ([]policy.VMState, []*Domain) {
	var states []policy.VMState
	var doms []*Domain
	for _, d := range h.Domains() { // Domains() is sorted by name
		if !d.Deflatable() || d.State() != Running {
			continue
		}
		states = append(states, policy.VMState{
			Name:     d.Name(),
			Max:      d.MaxSize(),
			Min:      d.Floor(),
			Priority: d.Priority(),
			Current:  d.Allocation(),
			Load:     d.OfferedLoad(),
		})
		doms = append(doms, d)
	}
	return states, doms
}

func checkView(t *testing.T, h *Host, op string) {
	t.Helper()
	gotStates, gotDoms := h.AppendDeflatableView(nil, nil)
	wantStates, wantDoms := freshView(h)
	if len(gotStates) != len(wantStates) || len(gotDoms) != len(wantDoms) {
		t.Fatalf("after %s: view sizes diverged: got %d/%d domains, want %d/%d",
			op, len(gotStates), len(gotDoms), len(wantStates), len(wantDoms))
	}
	for i := range wantStates {
		if gotStates[i] != wantStates[i] {
			t.Fatalf("after %s: cached view[%d] diverged:\n got %+v\nwant %+v",
				op, i, gotStates[i], wantStates[i])
		}
		if gotDoms[i] != wantDoms[i] {
			t.Fatalf("after %s: domain pointer %d diverged", op, i)
		}
	}
}

// TestDeflatableViewMatchesFreshWalk is the view-cache coherence
// property test: after every operation of a long randomized define /
// start / limit / hotplug / clear / shutdown / undefine / offered-load
// sequence, the cached per-host VM-state view must equal a fresh
// Domains() walk exactly — the invariant that lets PlaceOn and
// Reinflate consume the cache instead of rebuilding policy.VMState
// slices per pass. Load reports are patched into the view without a
// rebuild, and interleaved Aggregates() reads rebuild it without
// consuming the load flag; both paths are exercised.
func TestDeflatableViewMatchesFreshWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := testHost(t)
	var live []string
	next := 0

	for op := 0; op < 3000; op++ {
		var opName string
		switch k := rng.Intn(12); {
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
		case k >= 10: // offered-load report, sometimes unchanged
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) != 0 {
				d.SetOfferedLoad(float64(rng.Intn(8)) * 0.5)
			} else {
				d.SetOfferedLoad(d.OfferedLoad())
			}
			opName = "load " + name
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
		if rng.Intn(4) == 0 {
			h.Aggregates()
		}
		checkView(t, h, opName)
	}
}

// TestDeflatableViewAppendSemantics checks the append contract: the
// destination buffers are extended, not overwritten, and reusing a
// buffer across reads does not allocate once its capacity is warm.
func TestDeflatableViewAppendSemantics(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 4, 8192)
	d, err := h.Define(DomainConfig{
		Name: "b", Size: resources.New(4, 8192, 0, 0), Deflatable: true, Priority: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	sentinel := policy.VMState{Name: "sentinel"}
	states, doms := h.AppendDeflatableView([]policy.VMState{sentinel}, nil)
	if len(states) < 2 || states[0].Name != "sentinel" {
		t.Fatalf("append must extend the destination: %+v", states)
	}
	if len(doms) != len(states)-1 {
		t.Fatalf("domains not parallel to appended states: %d vs %d", len(doms), len(states)-1)
	}

	// Steady state: repeated reads into a reused buffer, with a limit
	// change in between forcing a cache rebuild, must not allocate.
	var sbuf []policy.VMState
	var dbuf []*Domain
	sbuf, dbuf = h.AppendDeflatableView(sbuf[:0], dbuf[:0])
	got := testing.AllocsPerRun(100, func() {
		d.SetCPUShares(2 + float64(len(sbuf)%2)) // invalidate
		sbuf, dbuf = h.AppendDeflatableView(sbuf[:0], dbuf[:0])
	})
	if got != 0 {
		t.Errorf("steady-state view read allocates %.1f allocs/op, want 0", got)
	}
}

// TestOfferedLoadConcurrentWithViewReads reports loads from several
// goroutines — as the sharded sample pass does, one shard per slice of
// the running set — while another goroutine reads the view. Run with
// -race; once the writers finish, the view must carry every final load.
func TestOfferedLoadConcurrentWithViewReads(t *testing.T) {
	h := testHost(t)
	var doms []*Domain
	for i := 0; i < 8; i++ {
		doms = append(doms, defineRunning(t, h, fmt.Sprintf("vm-%d", i), 2, 4096))
	}
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var states []policy.VMState
		var ds []*Domain
		for {
			select {
			case <-done:
				return
			default:
				states, ds = h.AppendDeflatableView(states[:0], ds[:0])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				for i := w; i < len(doms); i += 4 {
					doms[i].SetOfferedLoad(float64((r + i) % 7))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-readerDone
	checkView(t, h, "concurrent load reports")
}

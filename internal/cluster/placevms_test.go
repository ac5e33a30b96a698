package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// batchManagers builds the indexed manager and the brute-force
// reference manager over an identical small cluster. Small cluster +
// large batches saturate capacity fast, so later VMs of a batch
// constantly lose the surplus earlier ones consumed and fall through to
// the pressure ranking.
func batchManagers(t *testing.T, cfg Config, nServers int) []*Manager {
	t.Helper()
	refCfg := cfg
	refCfg.ReferencePlacement = true
	ms := []*Manager{NewManager(cfg), NewManager(refCfg)}
	for i := 0; i < nServers; i++ {
		for _, m := range ms {
			part := i % max(1, m.Config().PriorityLevels)
			if _, err := m.AddServer(fmt.Sprintf("node-%03d", i), serverCap(), part); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ms
}

// describePlacements renders a batch result comparably.
func describePlacements(pls []Placement) string {
	out := ""
	for _, pl := range pls {
		out += describeOutcome(pl.Server, pl.Err)
		if pl.Err == nil {
			out = out[:len(out)-1] + fmt.Sprintf(" reclaim=%v init=%v]", pl.NeedsReclaim, pl.Initial)
		}
	}
	return out
}

// describeOutcome renders one placement's server, or its error class.
func describeOutcome(s *Server, err error) string {
	switch {
	case err != nil && errors.Is(err, ErrNoCapacity):
		return "[rejected]"
	case err != nil && errors.Is(err, ErrExists):
		return "[dup]"
	case err != nil:
		return "[err " + err.Error() + "]"
	default:
		return "[" + s.Host.Name() + "]"
	}
}

// randomBatch draws a batch of 1-16 VMs of mixed size, deflatability
// and priority, named vm-<next> onwards.
func randomBatch(rng *rand.Rand, next *int) []hypervisor.DomainConfig {
	b := 1 + rng.Intn(16)
	dcs := make([]hypervisor.DomainConfig, 0, b)
	for j := 0; j < b; j++ {
		dc := hypervisor.DomainConfig{
			Name:       fmt.Sprintf("vm-%05d", *next),
			Size:       resources.CPUMem(float64(1+rng.Intn(24)), float64(2048*(1+rng.Intn(24)))),
			Deflatable: rng.Intn(3) != 0,
			Priority:   0.25 * float64(1+rng.Intn(4)),
		}
		*next++
		if !dc.Deflatable {
			dc.Priority = 0
		}
		dcs = append(dcs, dc)
	}
	return dcs
}

// TestPlaceVMsMatchesReference drives identical randomized batch-place
// / batch-remove churn through the indexed manager and the brute-force
// reference, and fails on the first divergence in placements, per-VM
// outcomes (NeedsReclaim, launch allocation), counters or stats.
// Batches of up to 16 VMs against 6 servers make later VMs of a batch
// see the capacity earlier ones consumed.
func TestPlaceVMsMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ms := batchManagers(t, Config{Policy: policy.Priority{}}, 6)
			rng := rand.New(rand.NewSource(seed))
			var placed []string
			next := 0
			for op := 0; op < 120; op++ {
				if len(placed) > 0 && rng.Intn(10) < 3 {
					k := 1 + rng.Intn(min(4, len(placed)))
					names := make([]string, 0, k)
					for j := 0; j < k; j++ {
						i := rng.Intn(len(placed))
						names = append(names, placed[i])
						placed = append(placed[:i], placed[i+1:]...)
					}
					for _, m := range ms {
						if err := m.RemoveVMs(names...); err != nil {
							t.Fatalf("op %d: remove: %v", op, err)
						}
					}
					continue
				}
				dcs := randomBatch(rng, &next)
				got := describePlacements(ms[0].PlaceVMs(dcs, nil))
				if want := describePlacements(ms[1].PlaceVMs(dcs, nil)); got != want {
					t.Fatalf("op %d: indexed diverged from reference:\n got %s\nwant %s", op, got, want)
				}
				for _, dc := range dcs {
					if _, _, err := ms[0].LookupVM(dc.Name); err == nil {
						placed = append(placed, dc.Name)
					}
				}
				compareManagers(t, op, ms[0], ms[1])
			}
		})
	}
}

// TestPlaceVMsMatchesPlaceVMLoop pins PlaceVMs' contract: a batch is
// placed exactly as if PlaceVM had been called for each VM in order —
// the same server or error per VM, the same notification stream, the
// same counters and stats — under randomized batch-place / batch-remove
// churn, for the plain, priority-pool, risk-banded and reference
// configurations.
func TestPlaceVMsMatchesPlaceVMLoop(t *testing.T) {
	risk := &RiskConfig{HighPriority: 0.75, MaxBands: 4}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"proportional", Config{Policy: policy.Proportional{}}},
		{"priority-pools", Config{Policy: policy.Priority{}, PartitionByPriority: true, PriorityLevels: 4}},
		{"risk", Config{Policy: policy.Priority{}, Risk: risk}},
		{"reference", Config{Policy: policy.Priority{}, ReferencePlacement: true}},
	}
	for _, c := range configs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				var buses [2]notify.Bus
				var events [2][]notify.Event
				var ms [2]*Manager
				for k := range ms {
					k := k
					buses[k].Subscribe(func(ev notify.Event) { events[k] = append(events[k], ev) })
					cfg := c.cfg
					cfg.Notify = &buses[k]
					ms[k] = NewManager(cfg)
					for i := 0; i < 6; i++ {
						if _, err := ms[k].AddServerSpec(riskSpec(i, ms[k])); err != nil {
							t.Fatal(err)
						}
					}
				}
				batch, loop := ms[0], ms[1]
				rng := rand.New(rand.NewSource(seed))
				var placed []string
				next, notified := 0, 0
				for op := 0; op < 120; op++ {
					if len(placed) > 0 && rng.Intn(10) < 3 {
						i := rng.Intn(len(placed))
						name := placed[i]
						placed = append(placed[:i], placed[i+1:]...)
						for _, m := range ms {
							if err := m.RemoveVM(name); err != nil {
								t.Fatalf("op %d: remove: %v", op, err)
							}
						}
						continue
					}
					dcs := randomBatch(rng, &next)
					pls := batch.PlaceVMs(dcs, nil)
					for i, dc := range dcs {
						_, s, err := loop.PlaceVM(dc)
						got, want := describeOutcome(pls[i].Server, pls[i].Err), describeOutcome(s, err)
						if got != want {
							t.Fatalf("op %d, %s: PlaceVMs placed %s, PlaceVM %s", op, dc.Name, got, want)
						}
						if err == nil {
							placed = append(placed, dc.Name)
						}
					}
					compareManagers(t, op, batch, loop)
					if !reflect.DeepEqual(events[0], events[1]) {
						t.Fatalf("op %d: notifications diverged:\nPlaceVMs %+v\nPlaceVM  %+v", op, events[0], events[1])
					}
					notified += len(events[0])
					events[0], events[1] = events[0][:0], events[1][:0]
				}
				if notified == 0 || batch.Rejections() == 0 {
					t.Fatalf("%d notifications, %d rejections — the churn never deflated or filled the cluster",
						notified, batch.Rejections())
				}
			})
		}
	}
}

// TestPlaceVMsDuplicateNames pins the in-batch duplicate semantics: the
// second occurrence fails with ErrExists, exactly as two sequential
// PlaceVM calls would.
func TestPlaceVMsDuplicateNames(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.AddServer("node-000", serverCap(), 0); err != nil {
		t.Fatal(err)
	}
	dc := hypervisor.DomainConfig{Name: "vm-dup", Size: resources.CPUMem(2, 4096)}
	pls := m.PlaceVMs([]hypervisor.DomainConfig{dc, dc}, nil)
	if pls[0].Err != nil {
		t.Fatalf("first placement failed: %v", pls[0].Err)
	}
	if !errors.Is(pls[1].Err, ErrExists) {
		t.Fatalf("duplicate err = %v, want ErrExists", pls[1].Err)
	}
}

// TestPlaceVMsEmptyBatch pins the trivial cases.
func TestPlaceVMsEmptyBatch(t *testing.T) {
	m := NewManager(Config{})
	if got := m.PlaceVMs(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// surplusSteadyState builds a manager at steady state: a cluster of
// residents and a batch of probe VMs whose surplus queries cover both
// hits and the miss that sends a placement on to the pressure descent
// (and the existence check with it) — without placing anything.
func surplusSteadyState(tb testing.TB) (*Manager, []hypervisor.DomainConfig) {
	tb.Helper()
	m := NewManager(Config{Policy: policy.Proportional{}})
	for i := 0; i < 8; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%03d", i), resources.CPUMem(48, 131072), 0); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		dc := hypervisor.DomainConfig{
			Name:       fmt.Sprintf("resident-%02d", i),
			Size:       resources.CPUMem(12, 24576),
			Deflatable: true,
			Priority:   []float64{0.25, 0.5, 0.75, 1.0}[i%4],
		}
		if _, _, err := m.PlaceVM(dc); err != nil {
			tb.Fatal(err)
		}
	}
	// Probe batch: small VMs that still fit (surplus hits) and a giant
	// one nothing can surplus-host (a miss, answered by the existence
	// check too).
	dcs := []hypervisor.DomainConfig{
		{Name: "probe-a", Size: resources.CPUMem(4, 8192)},
		{Name: "probe-b", Size: resources.CPUMem(8, 16384), Deflatable: true, Priority: 0.5},
		{Name: "probe-c", Size: resources.CPUMem(47, 122880)},
	}
	return m, dcs
}

// surplusOnce runs, for every probe, the dirty sync plus the surplus
// query and existence check a placement starts with, without placing —
// the steady-state hot path the allocation gate watches.
func surplusOnce(m *Manager, dcs []hypervisor.DomainConfig) {
	m.mu.Lock()
	m.syncDirtyLocked()
	for _, dc := range dcs {
		if m.surplusCandidateLocked(m.PartitionOf(dc), dc.Size, m.banded(dc)) == nil {
			m.anyFitsLocked(dc.Size)
		}
	}
	m.mu.Unlock()
}

// TestSurplusSteadyStateZeroAllocs is the allocation-regression guard
// for the surplus query: once the query scratch is warm, answering the
// probes' surplus and existence queries must perform zero heap
// allocations.
func TestSurplusSteadyStateZeroAllocs(t *testing.T) {
	m, dcs := surplusSteadyState(t)
	surplusOnce(m, dcs) // warm the scratch
	got := testing.AllocsPerRun(200, func() {
		surplusOnce(m, dcs)
	})
	if got != 0 {
		t.Errorf("steady-state surplus queries allocate %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSurplusSteadyState is the surplus-query benchmark the
// Makefile's bench-allocs gate watches: `-benchmem` must report
// 0 allocs/op or the build fails. ns/op is the surplus work a batch of
// three arrivals pays before any placement.
func BenchmarkSurplusSteadyState(b *testing.B) {
	m, dcs := surplusSteadyState(b)
	surplusOnce(m, dcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surplusOnce(m, dcs)
	}
}

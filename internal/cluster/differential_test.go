package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// churnStep drives both managers with one identical operation and
// returns a comparable description of what happened.
type churnStep func(m *Manager) string

// runDifferentialChurn feeds the same randomized place/remove/query
// sequence to an indexed and a reference manager and fails on the first
// divergence: server choice, error class, counters or stats. This is
// the bit-for-bit placement-identity guarantee of the capacity index.
func runDifferentialChurn(t *testing.T, seed int64, cfg Config, nServers, nOps int) {
	t.Helper()
	runDifferentialChurnSpecs(t, seed, cfg, nServers, nOps, nil)
}

// runDifferentialChurnSpecs is runDifferentialChurn with custom server
// provisioning: specFor(i) supplies server i's full ServerSpec (bands,
// reserve fractions), so the risk suites can churn heterogeneous
// fleets. A nil specFor provisions the legacy homogeneous fleet.
func runDifferentialChurnSpecs(t *testing.T, seed int64, cfg Config, nServers, nOps int, specFor func(i int, m *Manager) ServerSpec) {
	t.Helper()
	refCfg := cfg
	refCfg.ReferencePlacement = true
	idxCfg := cfg
	idxCfg.ReferencePlacement = false

	managers := []*Manager{NewManager(idxCfg), NewManager(refCfg)}
	for i := 0; i < nServers; i++ {
		for _, m := range managers {
			spec := ServerSpec{
				Name:      fmt.Sprintf("node-%03d", i),
				Capacity:  serverCap(),
				Partition: i % max(1, m.Config().PriorityLevels),
			}
			if specFor != nil {
				spec = specFor(i, m)
			}
			if _, err := m.AddServerSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var placed []string
	next := 0
	for op := 0; op < nOps; op++ {
		var step churnStep
		switch {
		case len(placed) > 0 && rng.Intn(10) < 3: // removal (sometimes batched)
			k := 1 + rng.Intn(min(3, len(placed)))
			names := make([]string, 0, k)
			for j := 0; j < k; j++ {
				i := rng.Intn(len(placed))
				names = append(names, placed[i])
				placed = append(placed[:i], placed[i+1:]...)
			}
			step = func(m *Manager) string {
				if err := m.RemoveVMs(names...); err != nil {
					return fmt.Sprintf("remove err %v", err)
				}
				return fmt.Sprintf("removed %v", names)
			}
		case rng.Intn(10) == 0: // reclaim probe
			size := resources.CPUMem(float64(1+rng.Intn(48)), float64(1024*(1+rng.Intn(96))))
			step = func(m *Manager) string {
				return fmt.Sprintf("fits=%v", m.FitsWithoutDeflation(size))
			}
		default: // placement
			name := fmt.Sprintf("vm-%05d", next)
			next++
			dc := hypervisor.DomainConfig{
				Name:       name,
				Size:       resources.CPUMem(float64(1+rng.Intn(24)), float64(2048*(1+rng.Intn(24)))),
				Deflatable: rng.Intn(3) != 0,
				Priority:   0.25 * float64(1+rng.Intn(4)),
			}
			if !dc.Deflatable {
				dc.Priority = 0
			}
			admitted := false
			step = func(m *Manager) string {
				_, s, err := m.PlaceVM(dc)
				if err != nil {
					if !errors.Is(err, ErrNoCapacity) {
						t.Fatalf("op %d: unexpected error %v", op, err)
					}
					return "rejected"
				}
				admitted = true
				return "on " + s.Host.Name()
			}
			got := []string{step(managers[0]), step(managers[1])}
			if got[0] != got[1] {
				t.Fatalf("op %d (place %s): indexed %q != reference %q", op, name, got[0], got[1])
			}
			if admitted {
				placed = append(placed, name)
			}
			compareManagers(t, op, managers[0], managers[1])
			continue
		}
		got := []string{step(managers[0]), step(managers[1])}
		if got[0] != got[1] {
			t.Fatalf("op %d: indexed %q != reference %q", op, got[0], got[1])
		}
		compareManagers(t, op, managers[0], managers[1])
	}

	// The cached per-server aggregates must equal a fresh name-order
	// recompute at the end of the churn (the Manager relies on the
	// hypervisor cache-coherence property; spot-check it end to end).
	for _, m := range managers {
		for _, s := range m.Servers() {
			agg := s.Host.Aggregates()
			var alloc resources.Vector
			for _, d := range s.Host.Domains() {
				if d.State() == hypervisor.Running {
					alloc = alloc.Add(d.Allocation())
				}
			}
			if agg.Allocated != alloc {
				t.Fatalf("server %s: cached allocated %v != fresh %v", s.Host.Name(), agg.Allocated, alloc)
			}
		}
	}
}

// compareManagers asserts the externally observable state of the two
// managers is identical.
func compareManagers(t *testing.T, op int, a, b *Manager) {
	t.Helper()
	if a.DeflationEvents() != b.DeflationEvents() || a.Rejections() != b.Rejections() {
		t.Fatalf("op %d: counters diverged: indexed (%d defl, %d rej) vs reference (%d defl, %d rej)",
			op, a.DeflationEvents(), a.Rejections(), b.DeflationEvents(), b.Rejections())
	}
	if a.RiskRejections() != b.RiskRejections() {
		t.Fatalf("op %d: risk rejections diverged: indexed %d vs reference %d",
			op, a.RiskRejections(), b.RiskRejections())
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("op %d: stats diverged:\nindexed   %+v\nreference %+v", op, sa, sb)
	}
}

func TestIndexedPlacementMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialChurn(t, seed, Config{Policy: policy.Proportional{}}, 12, 400)
		})
	}
}

func TestIndexedPlacementMatchesReferencePriorityPolicy(t *testing.T) {
	runDifferentialChurn(t, 11, Config{Policy: policy.Priority{}}, 8, 300)
}

func TestIndexedPlacementMatchesReferencePartitioned(t *testing.T) {
	runDifferentialChurn(t, 21, Config{
		Policy:              policy.Priority{},
		PartitionByPriority: true,
		PriorityLevels:      4,
	}, 12, 400)
}

// TestIndexedPlacementMatchesReferenceMixedCapacity churns a fleet of
// three server shapes — full, half-size and memory-heavy, as in a
// stable/spot portfolio — so many servers pass an index's dominant-share
// bound yet fail the fit on another dimension, and the surplus descent
// prunes subtrees by their maximum free vectors on every arrival. Its
// placements must match the brute-force reference bit for bit, with one
// surplus index, with one per priority pool and with one per hazard
// band.
func TestIndexedPlacementMatchesReferenceMixedCapacity(t *testing.T) {
	shapes := []resources.Vector{serverCap(), serverCap().Scale(0.5), resources.CPUMem(16, 196608)}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"single-index", Config{Policy: policy.Proportional{}}},
		{"priority-pools", Config{Policy: policy.Priority{}, PartitionByPriority: true, PriorityLevels: 2}},
		{"hazard-bands", Config{Policy: policy.Proportional{}, Risk: &RiskConfig{MaxBands: 4}}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			runDifferentialChurnSpecs(t, 51, c.cfg, 15, 500, func(i int, m *Manager) ServerSpec {
				return ServerSpec{
					Name:      fmt.Sprintf("node-%03d", i),
					Capacity:  shapes[i%len(shapes)],
					Partition: (i / len(shapes)) % max(1, m.Config().PriorityLevels),
					Band:      (i / len(shapes)) % 4,
				}
			})
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

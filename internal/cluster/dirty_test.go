package cluster

import (
	"fmt"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
)

// TestLoadOnlyUpdateDirtiesNothing pins that offered load is view-only
// state: after every placed domain reports a new load, the dirty set
// holds no server and the next placement's dirty sync refreshes none —
// while the latency-aware policy still reads the new loads from the
// hosts' views. It holds with one index, with per-pool indexes and with
// per-band indexes alike.
func TestLoadOnlyUpdateDirtiesNothing(t *testing.T) {
	latency := policy.LatencyAware{MaxSlowdown: 2}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"single-index", Config{Policy: latency}},
		{"priority-pools", Config{Policy: latency, PartitionByPriority: true, PriorityLevels: 3}},
		{"hazard-bands", Config{Policy: latency, Risk: &RiskConfig{MaxBands: 3}}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(c.cfg)
			for i := 0; i < 6; i++ {
				if _, err := m.AddServerSpec(ServerSpec{
					Name:      fmt.Sprintf("node-%d", i),
					Capacity:  serverCap(),
					Partition: i % max(1, c.cfg.PriorityLevels),
					Band:      i % 3,
				}); err != nil {
					t.Fatal(err)
				}
			}
			var doms []*hypervisor.Domain
			for i := 0; i < 18; i++ {
				d, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%02d", i), 8, 16384, 0.5))
				if err != nil {
					t.Fatal(err)
				}
				doms = append(doms, d)
			}
			m.Stats() // drain the marks the placements left
			for i, d := range doms {
				d.SetOfferedLoad(float64(i%5) + 0.5)
			}
			if n := m.dirty.Len(); n != 0 {
				t.Fatalf("%d servers dirty after a load-only update", n)
			}
			before := m.synced
			if _, _, err := m.PlaceVM(deflatableVM("newcomer", 1, 1024, 0.5)); err != nil {
				t.Fatal(err)
			}
			if m.synced != before {
				t.Errorf("placement after a load-only update refreshed %d servers, want 0", m.synced-before)
			}
			for _, s := range m.servers {
				states, doms := s.Host.AppendDeflatableView(nil, nil)
				for i, st := range states {
					if st.Load != doms[i].OfferedLoad() {
						t.Errorf("%s: view Load %g, domain reports %g", st.Name, st.Load, doms[i].OfferedLoad())
					}
				}
			}
		})
	}
}

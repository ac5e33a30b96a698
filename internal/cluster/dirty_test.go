package cluster

import (
	"fmt"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
)

// TestLoadOnlyUpdateDirtiesNothing pins that offered load is view-only
// state: after every placed domain reports a new load, no partition's
// dirty set holds a server, and the next placement's dirty sync
// refreshes none — while the latency-aware policy still reads the new
// loads from the hosts' views.
func TestLoadOnlyUpdateDirtiesNothing(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			m := newTestManager(t, 6, Config{Policy: policy.LatencyAware{MaxSlowdown: 2}, PlacementPartitions: parts})
			defer m.Close()
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
			for _, p := range m.parts {
				if n := p.dirty.Len(); n != 0 {
					t.Fatalf("partition %d: %d servers dirty after a load-only update", p.id, n)
				}
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

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

func TestRevokeServerEvacuatesVMs(t *testing.T) {
	m := newTestManager(t, 3, Config{})
	var placedOn *Server
	for i := 0; i < 4; i++ {
		_, s, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 8, 16384, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			placedOn = s
		}
	}
	before := m.Stats()
	out, err := m.RevokeServer(placedOn.Host.Name())
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed != 0 {
		t.Fatalf("evacuation killed %d VMs with two empty servers available", out.Killed)
	}
	if out.Evacuated != len(out.VMs) || len(out.VMs) == 0 {
		t.Fatalf("evacuated %d of %d displaced VMs", out.Evacuated, len(out.VMs))
	}
	for i, pl := range out.Placements {
		if pl.Err != nil {
			t.Fatalf("VM %s: relocation error %v", out.VMs[i].Name, pl.Err)
		}
		if pl.Server == placedOn {
			t.Fatalf("VM %s relocated onto the revoked server", out.VMs[i].Name)
		}
		d, s, err := m.LookupVM(out.VMs[i].Name)
		if err != nil || d == nil || s != pl.Server {
			t.Fatalf("VM %s: lookup after evacuation = (%v, %v, %v)", out.VMs[i].Name, d, s, err)
		}
	}
	st := m.Stats()
	if st.Revoked != 1 {
		t.Fatalf("Stats.Revoked = %d", st.Revoked)
	}
	if st.VMs != before.VMs {
		t.Fatalf("VM count changed across lossless evacuation: %d -> %d", before.VMs, st.VMs)
	}
	wantCap := before.Capacity.Sub(serverCap())
	if st.Capacity != wantCap {
		t.Fatalf("Stats.Capacity = %v after revocation, want %v", st.Capacity, wantCap)
	}
	if m.Rejections() != 0 {
		t.Fatalf("evacuation counted %d admission rejections", m.Rejections())
	}

	// A revoked server must never receive placements.
	for i := 0; i < 8; i++ {
		_, s, err := m.PlaceVM(deflatableVM(fmt.Sprintf("post-%d", i), 4, 8192, 0.5))
		if err != nil {
			break // cluster full: fine, the check is about the target
		}
		if s == placedOn {
			t.Fatal("placement landed on a revoked server")
		}
	}

	// Restoration brings the capacity back and the server becomes a
	// candidate again.
	if err := m.RestoreServer(placedOn.Host.Name()); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Revoked != 0 || st.Capacity != before.Capacity {
		t.Fatalf("after restore: revoked=%d capacity=%v, want 0 / %v", st.Revoked, st.Capacity, before.Capacity)
	}
	if !m.FitsWithoutDeflation(serverCap()) {
		t.Fatal("restored server's full capacity not visible to placement")
	}
}

func TestRevokeRestoreLifecycleErrors(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	if _, err := m.RevokeServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("revoke unknown server err = %v", err)
	}
	if err := m.RestoreServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("restore unknown server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("restore in-service server err = %v", err)
	}
	if _, err := m.RevokeServers("node-0", "node-0"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate revoke batch err = %v", err)
	}
	if _, err := m.RevokeServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RevokeServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double revoke err = %v", err)
	}
	if _, err := m.ResizeServer("node-0", serverCap().Scale(0.5)); !errors.Is(err, ErrRevoked) {
		t.Errorf("resize of revoked server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double restore err = %v", err)
	}
}

func TestRevokeKillsWhenNoCapacity(t *testing.T) {
	// Two servers, both filled with on-demand VMs that cannot deflate:
	// revoking one leaves nowhere for its residents to go.
	m := newTestManager(t, 2, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := m.PlaceVM(onDemandVM(fmt.Sprintf("od-%d", i), 48, 131072)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.RevokeServer("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 1 || out.Killed != 1 || out.Evacuated != 0 {
		t.Fatalf("outcome = %d displaced / %d evacuated / %d killed, want 1/0/1",
			len(out.VMs), out.Evacuated, out.Killed)
	}
	if !errors.Is(out.Placements[0].Err, ErrNoCapacity) {
		t.Fatalf("kill error = %v", out.Placements[0].Err)
	}
	if _, _, err := m.LookupVM(out.VMs[0].Name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("killed VM still placed: %v", err)
	}
	if m.Rejections() != 0 {
		t.Fatalf("shock kill counted as admission rejection (%d)", m.Rejections())
	}
	if m.Stats().VMs != 1 {
		t.Fatalf("VMs = %d after kill, want 1", m.Stats().VMs)
	}
}

func TestResizeServerShrinkDeflates(t *testing.T) {
	// One server, deflatable residents filling most of it: a moderate
	// shrink must be absorbed purely by deflation — nothing displaced.
	m := newTestManager(t, 1, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 12, 32768, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	newCap := serverCap().Scale(0.5)
	out, err := m.ResizeServer("node-0", newCap)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 0 {
		t.Fatalf("moderate shrink displaced %d VMs", len(out.VMs))
	}
	s := m.Servers()[0]
	if alloc := s.Host.Allocated(); !alloc.FitsIn(newCap) {
		t.Fatalf("allocated %v exceeds shrunk capacity %v", alloc, newCap)
	}
	if m.Stats().VMs != 3 {
		t.Fatalf("VMs = %d, want 3", m.Stats().VMs)
	}

	// Growing back reinflates the residents to full size.
	if _, err := m.ResizeServer("node-0", serverCap()); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Host.Domains() {
		if d.Allocation() != d.MaxSize() {
			t.Fatalf("VM %s not reinflated after grow: %v of %v", d.Name(), d.Allocation(), d.MaxSize())
		}
	}
}

func TestResizeServerShrinkDisplaces(t *testing.T) {
	// Shrinking below the residents' floors forces displacement; the
	// displaced VMs must land on the second server, lowest priority
	// first.
	m := newTestManager(t, 2, Config{})
	// Two residents with explicit QoS floors of 8 cores each: the shrunk
	// capacity (10 cores) can hold one floor but not both, so exactly
	// one VM must be displaced even at maximal deflation.
	var target *Server
	for i := 0; i < 2; i++ {
		dc := deflatableVM(fmt.Sprintf("vm-%d", i), 20, 49152, 0.25*float64(i+1))
		dc.MinAllocation = resources.CPUMem(8, 20480)
		_, s, err := m.PlaceVM(dc)
		if err != nil {
			t.Fatal(err)
		}
		if target == nil {
			target = s
		} else if s != target {
			t.Fatalf("setup: VMs spread across servers")
		}
	}
	out, err := m.ResizeServer(target.Host.Name(), resources.CPUMem(10, 24576))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) == 0 {
		t.Fatal("deep shrink displaced nothing")
	}
	if out.VMs[0].Priority != 0.25 {
		t.Fatalf("displacement order: first victim priority %g, want the lowest (0.25)", out.VMs[0].Priority)
	}
	if out.Killed != 0 {
		t.Fatalf("displaced VMs killed (%d) with an empty server available", out.Killed)
	}
	if alloc := target.Host.Allocated(); !alloc.FitsIn(resources.CPUMem(10, 24576)) {
		t.Fatalf("allocated %v exceeds shrunk capacity", alloc)
	}
}

// TestRevocationChurnMatchesAcrossEngines is the cluster-level
// differential guarantee under capacity shocks: an identical randomized
// sequence of placements, removals, revocations, restorations and
// resizes must produce identical placements, evacuation outcomes,
// counters and stats on the reference manager and on the indexed
// manager in both pressure-scan modes.
func TestRevocationChurnMatchesAcrossEngines(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRevocationChurn(t, seed, Config{Policy: policy.Priority{}}, 12, 160)
		})
	}
}

// TestPressureShockChurnDifferential saturates the revocation churn so
// revokes and resizes interleave with under-pressure placements — the
// adversarial case for the pressure index, whose bound keys must track
// servers leaving, returning and changing size mid-stream. The longer
// sequence keeps the cluster full enough that arrivals routinely fall
// through to the pressure scan right after shock events, and the
// outcome checks reject a run where the new machinery never fired.
func TestPressureShockChurnDifferential(t *testing.T) {
	for _, seed := range []int64{7, 19} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			out := runRevocationChurn(t, seed, Config{Policy: policy.Priority{}}, 10, 500)
			if out.revokes == 0 || out.resizes == 0 {
				t.Fatalf("churn produced %d revokes / %d resizes — the interleaving is vacuous",
					out.revokes, out.resizes)
			}
			if out.arrivals == 0 {
				t.Fatal("no pressured arrivals — the churn never saturated")
			}
			if out.pruned == 0 {
				t.Fatal("bound pruning never fired under shock churn")
			}
		})
	}
}

// churnEngine pairs one manager configuration with its label for the
// multi-engine differential churn.
type churnEngine struct {
	label string
	m     *Manager
}

// churnOutcome summarizes one runRevocationChurn for vacuity checks:
// how much shock churn the sequence produced and the pruned engines'
// pressure-scan meters.
type churnOutcome struct {
	revokes, resizes         int
	arrivals, scored, pruned int
}

func runRevocationChurn(t *testing.T, seed int64, cfg Config, nServers, nOps int) churnOutcome {
	t.Helper()
	var engines []churnEngine
	refCfg := cfg
	refCfg.ReferencePlacement = true
	engines = append(engines, churnEngine{"reference", NewManager(refCfg)})
	// Both scan modes: pruned descent (default) and the retained full
	// linear scan, each against the reference.
	fcfg := cfg
	fcfg.FullPressureScan = true
	engines = append(engines, churnEngine{"pruned", NewManager(cfg)}, churnEngine{"fullscan", NewManager(fcfg)})
	for i := 0; i < nServers; i++ {
		for _, e := range engines {
			if _, err := e.m.AddServer(fmt.Sprintf("node-%03d", i), serverCap(), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	evacString := func(out Evacuation, err error) string {
		if err != nil {
			return fmt.Sprintf("err=%v", err)
		}
		s := fmt.Sprintf("evac=%d killed=%d:", out.Evacuated, out.Killed)
		for i, pl := range out.Placements {
			if pl.Err != nil {
				s += fmt.Sprintf(" %s->killed", out.VMs[i].Name)
			} else {
				s += fmt.Sprintf(" %s->%s", out.VMs[i].Name, pl.Server.Host.Name())
			}
		}
		return s
	}

	rng := rand.New(rand.NewSource(seed))
	revoked := make([]bool, nServers)
	nRevoked := 0
	placed := map[string]bool{}
	next := 0
	var out churnOutcome
	for op := 0; op < nOps; op++ {
		var step func(m *Manager) string
		r := rng.Intn(20)
		switch {
		case r < 2 && nRevoked < nServers/2: // revoke 1-2 servers
			k := 1 + rng.Intn(2)
			var names []string
			for j := 0; j < k && nRevoked < nServers/2; j++ {
				i := rng.Intn(nServers)
				for revoked[i] {
					i = (i + 1) % nServers
				}
				revoked[i] = true
				nRevoked++
				out.revokes++
				names = append(names, fmt.Sprintf("node-%03d", i))
			}
			step = func(m *Manager) string {
				out, err := m.RevokeServers(names...)
				if err == nil {
					for i, pl := range out.Placements {
						if pl.Err != nil {
							delete(placed, out.VMs[i].Name)
						}
					}
				}
				return "revoke " + evacString(out, err)
			}
		case r < 4 && nRevoked > 0: // restore one
			i := rng.Intn(nServers)
			for !revoked[i] {
				i = (i + 1) % nServers
			}
			revoked[i] = false
			nRevoked--
			name := fmt.Sprintf("node-%03d", i)
			step = func(m *Manager) string {
				if err := m.RestoreServer(name); err != nil {
					return fmt.Sprintf("restore err %v", err)
				}
				return "restored " + name
			}
		case r < 6: // resize an in-service server
			i := rng.Intn(nServers)
			for revoked[i] {
				i = (i + 1) % nServers
			}
			name := fmt.Sprintf("node-%03d", i)
			scale := 0.4 + 0.6*rng.Float64() // 40%..100%
			capv := serverCap().Scale(scale)
			out.resizes++
			step = func(m *Manager) string {
				out, err := m.ResizeServer(name, capv)
				if err == nil {
					for i, pl := range out.Placements {
						if pl.Err != nil {
							delete(placed, out.VMs[i].Name)
						}
					}
				}
				return fmt.Sprintf("resize %s %.2f ", name, scale) + evacString(out, err)
			}
		case r < 9 && len(placed) > 0: // departure batch
			k := 1 + rng.Intn(3)
			var names []string
			for name := range placed {
				names = append(names, name)
				if len(names) == k {
					break
				}
			}
			// map range order is random but the same list is fed to all
			// engines, so determinism across engines holds; sort for a
			// reproducible failure message only.
			for _, n := range names {
				delete(placed, n)
			}
			step = func(m *Manager) string {
				if err := m.RemoveVMs(names...); err != nil {
					return fmt.Sprintf("remove err %v", err)
				}
				return "removed"
			}
		default: // arrival
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
			got := make([]string, len(engines))
			for i, e := range engines {
				got[i] = step(e.m)
			}
			for i := 1; i < len(engines); i++ {
				if got[i] != got[0] {
					t.Fatalf("op %d (place %s): %s %q != %s %q",
						op, name, engines[i].label, got[i], engines[0].label, got[0])
				}
			}
			if admitted {
				placed[name] = true
			}
			compareEngineStats(t, op, engines[0].m, engines[1:])
			continue
		}
		got := make([]string, len(engines))
		for i, e := range engines {
			got[i] = step(e.m)
		}
		for i := 1; i < len(engines); i++ {
			if got[i] != got[0] {
				t.Fatalf("op %d: %s %q != %s %q", op, engines[i].label, got[i], engines[0].label, got[0])
			}
		}
		compareEngineStats(t, op, engines[0].m, engines[1:])
	}

	// Pressure-scan meter invariants across the whole churn: arrivals
	// are mode-invariant; the full-scan engine scores exactly what the
	// reference scores and prunes nothing; the pruned engine's scored
	// and pruned servers add up to the reference's eligible total.
	refArr, refScored, refPruned := engines[0].m.PressureStats()
	if refPruned != 0 {
		t.Fatalf("reference pruned %d servers, want 0", refPruned)
	}
	out.arrivals = refArr
	for _, e := range engines[1:] {
		arr, scored, pruned := e.m.PressureStats()
		if arr != refArr {
			t.Fatalf("%s: %d pressured arrivals, reference %d", e.label, arr, refArr)
		}
		if e.label == "fullscan" {
			if scored != refScored || pruned != 0 {
				t.Fatalf("%s: scored/pruned = %d/%d, reference full scan %d/0",
					e.label, scored, pruned, refScored)
			}
			continue
		}
		out.scored, out.pruned = scored, pruned
		if scored+pruned != refScored {
			t.Fatalf("%s: scored+pruned = %d, want the reference's eligible total %d",
				e.label, scored+pruned, refScored)
		}
	}
	return out
}

func compareEngineStats(t *testing.T, op int, ref *Manager, others []churnEngine) {
	t.Helper()
	sr := ref.Stats()
	for _, o := range others {
		so := o.m.Stats()
		if so != sr {
			t.Fatalf("op %d: stats diverged (%s):\nref   %+v\ngot   %+v", op, o.label, sr, so)
		}
		if o.m.DeflationEvents() != ref.DeflationEvents() || o.m.Rejections() != ref.Rejections() {
			t.Fatalf("op %d: counters diverged (%s)", op, o.label)
		}
	}
}

// TestManagerCloseIdempotent: Close is a no-op kept for existing
// callers, so closing twice is safe and a closed manager still places,
// batch-places and evacuates exactly as before.
func TestManagerCloseIdempotent(t *testing.T) {
	m := newTestManager(t, 4, Config{})
	if _, _, err := m.PlaceVM(deflatableVM("vm-0", 4, 8192, 0.5)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	pls := m.PlaceVMs([]hypervisor.DomainConfig{
		deflatableVM("vm-1", 4, 8192, 0.5),
		deflatableVM("vm-2", 4, 8192, 0.5),
	}, nil)
	for _, pl := range pls {
		if pl.Err != nil {
			t.Fatalf("placement after Close failed: %v", pl.Err)
		}
	}
	if _, err := m.RevokeServer("node-0"); err != nil {
		t.Fatalf("revocation after Close failed: %v", err)
	}
	for _, name := range []string{"vm-0", "vm-1", "vm-2"} {
		if _, s, err := m.LookupVM(name); err != nil || s.Host.Name() == "node-0" {
			t.Fatalf("%s after Close and an evacuation: server %v, err %v", name, s, err)
		}
	}
	m.Close()
}

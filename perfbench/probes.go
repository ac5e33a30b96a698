package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// The probes time single layers on the replay's fleet snapshot, from
// outside the program: capacity-index queries, the dirty-set drain,
// the host aggregate refresh, the policy pass and server revocation.
// Their work counters (index entries visited, domains walked) are pure
// functions of the snapshot, so they repeat exactly across runs.

// probeReps is how many timed calls each per-call probe makes.
const probeReps = 2000

// revokeProbeServers caps how many servers the revocation probe
// revokes and restores.
const revokeProbeServers = 256

// fitMargin pads capacity-index lower bounds exactly as the cluster
// manager does, so a query prunes the same subtrees.
const fitMargin = 1e-7

type probeResult struct {
	servers      int // in-service servers in the snapshot
	indexes      int // hazard-band indexes MinFitting merges
	queries      int
	firstNs      []float64
	minNs        []float64
	upsertNs     []float64
	drainNs      []float64
	refreshNs    []float64
	targetsNs    []float64
	firstVisits  int // fits calls summed over all queries
	minVisits    int
	hostDomains  int // domains on the aggregate-refresh host
	policyVMs    int // VM states the timed policy pass solves over
	targetAllocs float64
	revokeMs     []float64
	restoreUs    []float64
	displaced    int // VMs the probe revocations displaced
}

// runProbes times every layer probe on the replay's snapshot.
func runProbes(w workload, s *trace.Stream, rr *replayResult) (*probeResult, error) {
	snap := rr.snap
	pr := &probeResult{}
	var live []serverSnap
	for _, ss := range snap.servers {
		if !ss.revoked {
			live = append(live, ss)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("probes: no in-service server at t=%g", snap.at)
	}
	pr.servers = len(live)
	sizes := make([]resources.Vector, len(snap.upcoming))
	for i, idx := range snap.upcoming {
		p := s.Params(idx)
		sizes[i] = resources.CPUMem(float64(p.Cores), p.MemoryMB)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("probes: no arrivals after t=%g", snap.at)
	}
	pr.queries = len(sizes)

	firstV, minV := indexProbe(pr, live, sizes)
	// The visit counters must not depend on anything but the snapshot.
	if f2, m2 := indexProbe(&probeResult{}, live, sizes); f2 != firstV || m2 != minV {
		return nil, fmt.Errorf("probes: capindex visits differ between two passes over one snapshot (%d/%d vs %d/%d)", firstV, minV, f2, m2)
	}
	pr.firstVisits, pr.minVisits = firstV, minV

	ds := capindex.NewDirtySet()
	for _, ss := range live {
		ds.Mark(ss.name)
	}
	ds.Drain()
	for r := 0; r < probeReps; r++ {
		ds.Mark(live[r%len(live)].name)
		t0 := time.Now()
		ds.Drain()
		pr.drainNs = append(pr.drainNs, float64(time.Since(t0)))
	}

	if err := hostProbe(pr, w.policy, live, sizes[0]); err != nil {
		return nil, err
	}
	if err := revokeProbe(pr, rr); err != nil {
		return nil, err
	}
	return pr, nil
}

// indexProbe builds the snapshot's capacity indexes — one over every
// in-service server, and one per hazard band as the risk-aware manager
// keeps them — keyed by dominant free share, and times FirstFitting,
// MinFitting and Upsert. It returns the fits calls of each query kind.
func indexProbe(pr *probeResult, live []serverSnap, sizes []resources.Vector) (firstVisits, minVisits int) {
	free := make(map[string]resources.Vector, len(live))
	capOf := make(map[string]resources.Vector, len(live))
	all := capindex.New()
	var allMax resources.Vector
	var bands []*capindex.Index
	var bandMax []resources.Vector
	for _, ss := range live {
		f := ss.capacity.Sub(ss.agg.Allocated)
		free[ss.name], capOf[ss.name] = f, ss.capacity
		key := f.DominantShare(ss.capacity)
		all.Upsert(ss.name, key)
		allMax = allMax.Max(ss.capacity)
		for len(bands) <= ss.band {
			bands = append(bands, nil)
			bandMax = append(bandMax, resources.Vector{})
		}
		if bands[ss.band] == nil {
			bands[ss.band] = capindex.New()
		}
		bands[ss.band].Upsert(ss.name, key)
		bandMax[ss.band] = bandMax[ss.band].Max(ss.capacity)
	}
	for _, ix := range bands {
		if ix != nil {
			pr.indexes++
		}
	}
	var size resources.Vector
	visits := 0
	fits := func(n string) bool {
		visits++
		return size.FitsIn(free[n])
	}
	lows := make([]float64, len(bands))
	for _, size = range sizes {
		lower := size.DominantShare(allMax) - fitMargin
		before := visits
		t0 := time.Now()
		all.FirstFitting(lower, fits)
		pr.firstNs = append(pr.firstNs, float64(time.Since(t0)))
		firstVisits += visits - before

		for b := range bands {
			lows[b] = size.DominantShare(bandMax[b]) - fitMargin
		}
		before = visits
		t0 = time.Now()
		capindex.MinFitting(bands, lows, fits)
		pr.minNs = append(pr.minNs, float64(time.Since(t0)))
		minVisits += visits - before
	}
	// Upsert: move one server to the key it would have after hosting the
	// query VM, then put it back (untimed).
	for i, size := range sizes {
		name := live[i%len(live)].name
		old, _ := all.Key(name)
		moved := free[name].Sub(size).ClampNonNegative().DominantShare(capOf[name])
		t0 := time.Now()
		all.Upsert(name, moved)
		pr.upsertNs = append(pr.upsertNs, float64(time.Since(t0)))
		all.Upsert(name, old)
	}
	return firstVisits, minVisits
}

// hostProbe rebuilds the snapshot host whose VM count is nearest the
// fleet mean (among hosts with a deflatable VM) as a standalone
// hypervisor.Host, then times Host.Aggregates after one domain mutation
// and the policy pass over the host's deflatable view.
func hostProbe(pr *probeResult, pol policy.Policy, live []serverSnap, query resources.Vector) error {
	total := 0
	for _, ss := range live {
		total += len(ss.vms)
	}
	mean := float64(total) / float64(len(live))
	var pick *serverSnap
	for i := range live {
		ss := &live[i]
		if !hasDeflatable(ss) {
			continue
		}
		if pick == nil || math.Abs(float64(len(ss.vms))-mean) < math.Abs(float64(len(pick.vms))-mean) {
			pick = ss
		}
	}
	if pick == nil {
		return fmt.Errorf("probes: no host with a deflatable VM in the snapshot")
	}
	h, err := hypervisor.NewHost(hypervisor.HostConfig{Name: pick.name, Capacity: pick.capacity})
	if err != nil {
		return err
	}
	var doms []*hypervisor.Domain
	for _, v := range pick.vms {
		d, err := h.Define(v.cfg)
		if err != nil {
			return err
		}
		if err := d.Start(); err != nil {
			return err
		}
		if v.alloc != v.cfg.Size {
			if _, err := (mechanism.Transparent{}).Apply(d, v.alloc); err != nil {
				return err
			}
		}
		doms = append(doms, d)
	}
	pr.hostDomains = len(doms)

	d0 := doms[0]
	load := d0.OfferedLoad()
	for r := 0; r < probeReps; r++ {
		d0.SetOfferedLoad(load + float64(r%2+1)*0.5) // a real change invalidates the cache
		t0 := time.Now()
		h.Aggregates()
		pr.refreshNs = append(pr.refreshNs, float64(time.Since(t0)))
	}
	d0.SetOfferedLoad(load)

	states, _ := h.AppendDeflatableView(nil, nil)
	pr.policyVMs = len(states)
	need := query.Min(h.Aggregates().DeflatableReserve.Scale(0.5))
	var sc policy.Scratch
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		pol.TargetsInto(states, need, &sc)
		pr.targetsNs = append(pr.targetsNs, float64(time.Since(t0)))
	}
	pr.targetAllocs = testing.AllocsPerRun(probeReps/10, func() {
		pol.TargetsInto(states, need, &sc)
	})
	return nil
}

func hasDeflatable(ss *serverSnap) bool {
	for _, v := range ss.vms {
		if v.cfg.Deflatable {
			return true
		}
	}
	return false
}

// revokeProbe provisions a fresh manager with the replay's fleet, loads
// it with the snapshot's running VMs, then revokes and restores up to
// revokeProbeServers in-service servers one call at a time. Every
// workload gets revocation costs this way, including those whose trace
// has no shocks.
func revokeProbe(pr *probeResult, rr *replayResult) error {
	mgr, err := rr.fleet.newManager()
	if err != nil {
		return err
	}
	defer mgr.Close()
	var out, in []string
	var dcs []hypervisor.DomainConfig
	for _, ss := range rr.snap.servers {
		if ss.revoked {
			out = append(out, ss.name)
		} else {
			in = append(in, ss.name)
		}
		for _, v := range ss.vms {
			dcs = append(dcs, v.cfg)
		}
	}
	if len(out) > 0 {
		if _, err := mgr.RevokeServers(out...); err != nil {
			return err
		}
	}
	mgr.PlaceVMs(dcs, nil)
	step := 1
	if len(in) > revokeProbeServers {
		step = len(in) / revokeProbeServers
	}
	for i := 0; i < len(in) && len(pr.revokeMs) < revokeProbeServers; i += step {
		t0 := time.Now()
		ev, err := mgr.RevokeServers(in[i])
		pr.revokeMs = append(pr.revokeMs, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		pr.displaced += len(ev.VMs)
		t0 = time.Now()
		err = mgr.RestoreServer(in[i])
		pr.restoreUs = append(pr.restoreUs, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	return nil
}

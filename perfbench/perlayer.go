package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"vmdeflate/internal/clustersim"
)

// tracedRun is one Engine.Run with Config.Timings set, plus the
// runtime's allocation and GC-CPU figures across it.
type tracedRun struct {
	wall   time.Duration
	phases clustersim.PhaseTimings
	res    *clustersim.Result
	allocB float64
	gcCPU  float64
	totCPU float64
}

var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

func runTraced(w workload, seed int64) (*tracedRun, *setup, error) {
	runtime.GC()
	s, err := w.newSetup(seed)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracedRun{}
	s.cfg.Timings = &tr.phases
	if s.engine, err = clustersim.NewEngine(s.cfg); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	before := readRuntime()
	t0 := time.Now()
	tr.res, err = s.engine.Run()
	tr.wall = time.Since(t0)
	// The runtime books CPU classes only when a GC cycle ends, so a
	// forced cycle flushes them; a second forced cycle on the same heap
	// costs what the first did, and is subtracted so that the figures
	// hold the run's own GC work alone.
	runtime.GC()
	after := readRuntime()
	runtime.GC()
	again := readRuntime()
	if err != nil {
		return nil, nil, fmt.Errorf("traced run %s: %w", w.name, err)
	}
	delta := func(i int, from, to []rtmetrics.Sample) float64 {
		return to[i].Value.Float64() - from[i].Value.Float64()
	}
	tr.allocB = float64(after[0].Value.Uint64() - before[0].Value.Uint64())
	tr.gcCPU = delta(1, before, after) - delta(1, after, again)
	tr.totCPU = delta(2, before, after) - delta(2, after, again)
	return tr, s, nil
}

// perLayer makes the traced run, the replay and the probes, checks
// them against the untraced Result, and sets every per-layer metric.
func perLayer(m metricSet, w workload, opts options, reps []repeat, rep *report) error {
	tr, s, err := runTraced(w, opts.seed)
	if err != nil {
		return err
	}
	if !sameResult(tr.res, reps[0].res) {
		fail(rep, rep.Attempted-rep.Failed, fmt.Errorf("traced Result differs from the untraced one"))
	}
	rr, err := replay(w, s.in.stream, s.in.base, opts.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s replay: %d spans, snapshot at t=%.0fs\n", w.name, len(rr.rec.spans), rr.snap.at)
	if err := checkParity(rr.counts, reps[0].res); err != nil {
		fail(rep, rep.Attempted-rep.Failed, err)
	}
	if opts.spansPath != "" {
		if err := rr.rec.write(opts.spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	pr, err := runProbes(w, s.in.stream, rr)
	if err != nil {
		return err
	}

	var gens, sizings, walls []float64
	for _, r := range reps {
		gens = append(gens, r.gen.Seconds())
		sizings = append(sizings, r.sizing.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	res := reps[0].res

	// trace: generation time from the untraced set-ups, per-call times
	// from the replay's spans.
	m.set("trace.gen_s", "s", median(gens))
	calls := spanDurations(rr.rec, 1)
	perCall(m, "trace.params_ns", "ns", calls[spParams])
	perCall(m, "trace.synth_ns", "ns", calls[spSynthAppend])
	perCall(m, "trace.cursor_ns", "ns", calls[spCursorAt])

	// clustersim: sizing, the engine's own phase timings, and the
	// runtime's allocation and GC figures over the traced run.
	wall := tr.wall.Seconds()
	ph := tr.phases
	m.set("clustersim.sizing_s", "s", median(sizings))
	m.set("clustersim.traced_wall_s", "s", wall)
	m.set("clustersim.phase.commit_s", "s", ph.Commit.Seconds())
	m.set("clustersim.phase.surplus_s", "s", ph.Surplus.Seconds())
	m.set("clustersim.phase.pressure_s", "s", ph.Pressure.Seconds())
	m.set("clustersim.phase.sample_s", "s", ph.Sample.Seconds())
	m.set("clustersim.phase.reinflate_s", "s", ph.Reinflate.Seconds())
	m.set("clustersim.phase.unattributed_s", "s", wall-(ph.Propose+ph.Commit+ph.Sample+ph.Reinflate).Seconds())
	m.set("clustersim.alloc_b_per_arrival", "B", tr.allocB/float64(res.Arrivals))
	m.set("clustersim.gc_cpu_frac", "frac", tr.gcCPU/tr.totCPU)
	m.set("clustersim.tracing_overhead_frac", "frac", wall/median(walls)-1)
	m.set("clustersim.servers", "count", float64(res.Servers))

	// Simulated outcomes that are zero on some workloads, or vary with
	// the seed by more than a third of any allowed bound, so they cannot
	// be end-to-end metrics.
	arr := float64(res.Arrivals)
	m.set("outcome.throughput_loss", "frac", res.ThroughputLoss)
	m.set("outcome.failed_frac", "frac", float64(res.Rejected+res.ShockKills)/arr)
	m.set("outcome.failure_prob", "frac", res.FailureProbability)
	m.set("outcome.slo_violation_rate", "frac", res.SLOViolationRate)
	m.set("outcome.displaced_downtime_vm_s", "vm_s", res.DisplacedDowntime)

	// cluster: replay spans and counters.
	perVM := spanDurations(rr.rec, 1e3)
	busy := spanBusy(rr.rec)
	m.set("cluster.place.busy_s", "s", busy[spPlaceVMs])
	perCall(m, "cluster.place.us_per_vm", "us", perVM[spPlaceVMs])
	m.set("cluster.remove.busy_s", "s", busy[spRemoveVMs])
	perCall(m, "cluster.remove.us_per_vm", "us", perVM[spRemoveVMs])
	perCall(m, "cluster.revoke.ms_per_call", "ms", pr.revokeMs)
	perCall(m, "cluster.restore.us_per_call", "us", pr.restoreUs)
	c := rr.counts
	m.set("cluster.revoke.calls", "count", float64(c.revokeCalls))
	m.set("cluster.restore.calls", "count", float64(c.restoreCalls))
	m.set("cluster.revoke.probe_displaced", "count", float64(pr.displaced))
	m.set("cluster.pressured_arrivals", "count", float64(c.pressured))
	m.set("cluster.pressure_scored", "count", float64(c.scored))
	m.set("cluster.pressure_pruned", "count", float64(c.pruned))
	m.set("cluster.prune_ratio", "frac", ratio(c.pruned, c.scored+c.pruned))
	m.set("cluster.reclaim_attempts", "count", float64(c.reclaimAttempts))
	m.set("cluster.deflation_events", "count", float64(c.deflationEvents))
	m.set("cluster.evacuations", "count", float64(c.evacuations))
	m.set("cluster.risk_rejections", "count", float64(c.riskRejections))
	m.set("cluster.useful_place_frac", "frac", ratio(c.admitted+c.evacuations, c.arrivals+c.displaced))

	// capindex, hypervisor and policy: the snapshot probes.
	m.set("capindex.servers", "count", float64(pr.servers))
	m.set("capindex.band_indexes", "count", float64(pr.indexes))
	perCall(m, "capindex.first_fitting_ns", "ns", pr.firstNs)
	m.set("capindex.first_fitting_visits", "count", float64(pr.firstVisits)/float64(pr.queries))
	perCall(m, "capindex.min_fitting_ns", "ns", pr.minNs)
	m.set("capindex.min_fitting_visits", "count", float64(pr.minVisits)/float64(pr.queries))
	perCall(m, "capindex.drain_ns", "ns", pr.drainNs)
	perCall(m, "capindex.upsert_ns", "ns", pr.upsertNs)
	m.set("hypervisor.domains", "count", float64(pr.hostDomains))
	perCall(m, "hypervisor.refresh_ns", "ns", pr.refreshNs)
	m.set("policy.vms", "count", float64(pr.policyVMs))
	perCall(m, "policy.targets_ns", "ns", pr.targetsNs)
	m.set("policy.targets_allocs", "count", pr.targetAllocs)
	return nil
}

// perCall sets name.p50, name.p99 and name.n from per-call samples.
func perCall(m metricSet, name, unit string, xs []float64) {
	m.set(name+".p50", unit, quantile(xs, 0.50))
	m.set(name+".p99", unit, quantile(xs, 0.99))
	m.set(name+".n", "count", float64(len(xs)))
}

// spanDurations returns each call kind's span durations in
// nanoseconds divided by per, further divided by the VMs or servers the
// call handled.
func spanDurations(r *recorder, per float64) [nSpanKinds][]float64 {
	var out [nSpanKinds][]float64
	for _, s := range r.spans {
		if s.parent < 0 || s.items <= 0 {
			continue
		}
		out[s.kind] = append(out[s.kind], float64(s.dur)/per/float64(s.items))
	}
	return out
}

// spanBusy returns each kind's summed span time in seconds.
func spanBusy(r *recorder) [nSpanKinds]float64 {
	var out [nSpanKinds]float64
	for _, s := range r.spans {
		out[s.kind] += float64(s.dur) / 1e9
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

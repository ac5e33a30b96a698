package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"vmdeflate/internal/clustersim"
)

// options are one invocation's settings.
type options struct {
	seed      int64
	budget    time.Duration
	traced    bool
	spansPath string
}

// minRepeats is the fewest untraced repeats a run makes, however long
// they take; medians need at least three.
const minRepeats = 3

// setupSamples is how many set-ups an untraced run times in total: one
// per repeat, then set-ups alone until this many. The repeats stop
// early enough to leave the budget room for the set-ups alone.
const setupSamples = 25

// repeat is one untraced set-up plus Engine.Run.
type repeat struct {
	setup    time.Duration
	gen      time.Duration
	sizing   time.Duration
	wall     time.Duration
	peakHeap uint64
	res      *clustersim.Result
}

// run measures workload w: untraced repeats until the time budget is
// spent (at least minRepeats), the output checks, and with opts.traced
// the traced run, the replay and the layer probes.
func run(w workload, opts options) (*report, error) {
	var reps []repeat
	start := time.Now()
	// A traced run keeps room for the traced engine run, the replay and
	// the probes, which together take about three repeats; an untraced
	// one for the set-ups alone.
	after, setupsAfter := 1, setupSamples-1
	if opts.traced {
		after, setupsAfter = 4, 0
	}
	for len(reps) < minRepeats || fitsBudget(reps, after, max(0, setupsAfter-len(reps)), time.Since(start), opts.budget) {
		r, err := runRepeat(w, opts.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s repeat %d: setup %.3fs run %.3fs, %d arrivals, %d servers, peak live heap %.1f MB\n",
			w.name, len(reps), r.setup.Seconds(), r.wall.Seconds(), r.res.Arrivals, r.res.Servers, float64(r.peakHeap)/(1<<20))
		reps = append(reps, r)
	}

	r0 := reps[0].res
	fmt.Fprintf(os.Stderr, "perfbench: %s result: servers %d admitted %d rejected %d (risk %d) pressured %d reclaim %d/%d failed, kills %d evacuations %d revocations %d, failure_prob %.4g throughput_loss %.4g slo_violation_rate %.4g\n",
		w.name, r0.Servers, r0.Admitted, r0.Rejected, r0.RiskRejections, r0.PressuredArrivals, r0.ReclamationFailures, r0.ReclamationAttempts,
		r0.ShockKills, r0.Evacuations, r0.Revocations, r0.FailureProbability, r0.ThroughputLoss, r0.SLOViolationRate)
	rep := &report{Correct: true, Metrics: metricSet{}}
	for i, r := range reps {
		rep.Attempted += r.res.Arrivals
		if err := checkResult(r.res, w.vms); err != nil {
			fail(rep, r.res.Arrivals, fmt.Errorf("repeat %d: %w", i, err))
		} else if !sameResult(r.res, reps[0].res) {
			fail(rep, r.res.Arrivals, fmt.Errorf("repeat %d: Result differs from repeat 0", i))
		}
	}
	if err := checkReferenceCut(w, opts.seed); err != nil {
		fail(rep, rep.Attempted-rep.Failed, err)
	}

	if opts.traced {
		if err := perLayer(rep.Metrics, w, opts, reps, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	// More set-ups than repeats, so the set-up median is steady too.
	setups := make([]time.Duration, 0, setupSamples)
	for _, r := range reps {
		setups = append(setups, r.setup)
	}
	for len(setups) < setupSamples {
		runtime.GC()
		s, err := w.newSetup(opts.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.totalDur)
	}
	endToEnd(rep.Metrics, reps, setups)
	return rep, nil
}

// fitsBudget reports whether work lasting n repeats and then k set-ups
// alone, each as long as the slowest so far, would still end within the
// budget.
func fitsBudget(reps []repeat, n, k int, elapsed, budget time.Duration) bool {
	var longest, longestSetup time.Duration
	for _, r := range reps {
		longest = max(longest, r.setup+r.wall)
		longestSetup = max(longestSetup, r.setup)
	}
	return elapsed+time.Duration(n)*longest+time.Duration(k)*longestSetup <= budget
}

// fail marks the report incorrect, counting n more operations as
// failed, and says why on standard error.
func fail(rep *report, n int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	rep.Correct = false
	rep.Failed += n
}

// runRepeat makes one timed set-up and one untraced Engine.Run, with
// the live heap sampled from a separate goroutine.
func runRepeat(w workload, seed int64) (repeat, error) {
	runtime.GC()
	s, err := w.newSetup(seed)
	if err != nil {
		return repeat{}, err
	}
	runtime.GC() // so the sampled live heap starts from this set-up alone
	hs := startHeapSampler()
	t0 := time.Now()
	res, err := s.engine.Run()
	wall := time.Since(t0)
	peak := hs.stop()
	if err != nil {
		return repeat{}, fmt.Errorf("run %s: %w", w.name, err)
	}
	return repeat{setup: s.totalDur, gen: s.genDur, sizing: s.sizeDur, wall: wall, peakHeap: peak, res: res}, nil
}

// endToEnd derives the user-visible metrics from the untraced repeats:
// timings as medians across repeats, the revenue outcome from the
// (identical) Results.
func endToEnd(m metricSet, reps []repeat, setupDurs []time.Duration) {
	var rates, setups, heaps []float64
	for _, r := range reps {
		rates = append(rates, float64(r.res.Arrivals)/r.wall.Seconds())
		heaps = append(heaps, float64(r.peakHeap)/(1<<20))
	}
	for _, d := range setupDurs {
		setups = append(setups, d.Seconds())
	}
	res := reps[0].res
	m.set("arrivals_per_s", "1/s", median(rates))
	m.set("setup_s", "s", median(setups))
	m.set("peak_heap_mb", "MB", median(heaps))
	m.set("revenue_priority_core_h", "core_h", res.Revenue["priority"])
}

// heapSampler polls the runtime's live-heap figure (updated at the end
// of every GC cycle) from its own goroutine and keeps the peak.
type heapSampler struct {
	done chan struct{}
	quit chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	hs := &heapSampler{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(hs.done)
		sample := []rtmetrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > hs.peak {
				hs.peak = v
			}
			select {
			case <-hs.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stop ends the sampler, waits for its goroutine and returns the peak.
func (hs *heapSampler) stop() uint64 {
	close(hs.quit)
	<-hs.done
	return hs.peak
}

// median returns the median of xs (mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

package clustersim

import (
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// The engine's one input path. Config.Trace (a materialised trace,
// synthetic or read from CSV) and Config.Stream (a lazily generated
// one) adapt here into a vmSource, once, in NewEngine or a public sizing
// helper. Everything downstream — sizing, pool planning, the arrival
// queue, admission, metering and kills — reads VMs through the source
// and never asks which input it got.

// vmSource hands out a trace's VMs by trace index.
type vmSource interface {
	len() int
	// meta returns VM i's sizing view without allocating.
	meta(i int) vmMeta
	// record returns VM i's record for its arrival event: the trace's
	// own record, or a metadata-only one (nil CPUUtil) for a stream.
	record(i int) *trace.VMRecord
	// appendUtil appends VM i's full utilisation series to buf.
	appendUtil(i int, buf []float64) []float64
	// bindUtil returns a reader of VM i's utilisation (rec is its
	// record) for as long as the VM runs; releaseUtil takes it back.
	bindUtil(i int, rec *trace.VMRecord) utilReader
	releaseUtil(utilReader)
}

// vmMeta is one VM's sizing view: everything the geometry pass, the
// bounds and the pool planner read, with samples the length of its
// utilisation series.
type vmMeta struct {
	class      trace.VMClass
	cores      int
	memoryMB   float64
	start, end float64
	samples    int
}

// size is the VM's full allocation.
func (m vmMeta) size() resources.Vector {
	return resources.CPUMem(float64(m.cores), m.memoryMB)
}

// utilReader reads one VM's utilisation at absolute time t, with
// VMRecord.UtilAt's semantics.
type utilReader interface {
	At(t float64) float64
}

// inputSource adapts whichever of Trace and Stream is set.
// applyDefaults guarantees exactly one is.
func inputSource(cfg Config) vmSource {
	return sourceOf(cfg.Trace, cfg.Stream)
}

// sourceOf adapts s when set, else tr.
func sourceOf(tr *trace.AzureTrace, s *trace.Stream) vmSource {
	if s != nil {
		return &streamSource{s: s}
	}
	return traceSource{vms: tr.VMs}
}

// traceSource adapts a materialised trace: records and series are the
// trace's own, and nothing it hands out allocates.
type traceSource struct{ vms []*trace.VMRecord }

func (s traceSource) len() int { return len(s.vms) }

func (s traceSource) meta(i int) vmMeta {
	vm := s.vms[i]
	return vmMeta{vm.Class, vm.Cores, vm.MemoryMB, vm.Start, vm.End, len(vm.CPUUtil)}
}

func (s traceSource) record(i int) *trace.VMRecord { return s.vms[i] }

func (s traceSource) appendUtil(i int, buf []float64) []float64 {
	return append(buf, s.vms[i].CPUUtil...)
}

func (s traceSource) bindUtil(_ int, rec *trace.VMRecord) utilReader { return (*recordUtil)(rec) }

func (s traceSource) releaseUtil(utilReader) {}

// recordUtil reads a materialised record's series.
type recordUtil trace.VMRecord

func (r *recordUtil) At(t float64) float64 { return (*trace.VMRecord)(r).UtilAt(t) }

// streamSource adapts a stream: per-VM parameters are generated on
// demand, series synthesized into the caller's buffer, and utilisation
// read through cursors recycled across VM lifetimes — the per-run arena
// that keeps steady-state churn allocation-light. A source belongs to
// one engine (or one sizing call); the Stream itself may be shared.
type streamSource struct {
	s     *trace.Stream
	synth *trace.SeriesSynth
	free  []*trace.UtilCursor
}

func (s *streamSource) len() int { return s.s.Len() }

func (s *streamSource) meta(i int) vmMeta {
	p := s.s.Params(i)
	return vmMeta{p.Class, p.Cores, p.MemoryMB, p.Start, p.End, p.Samples()}
}

func (s *streamSource) record(i int) *trace.VMRecord { return s.s.Params(i).MetaRecord() }

func (s *streamSource) appendUtil(i int, buf []float64) []float64 {
	if s.synth == nil {
		s.synth = trace.NewSeriesSynth()
	}
	return s.synth.Append(s.s.Params(i), buf)
}

func (s *streamSource) bindUtil(i int, _ *trace.VMRecord) utilReader {
	var cur *trace.UtilCursor
	if n := len(s.free); n > 0 {
		cur, s.free = s.free[n-1], s.free[:n-1]
	} else {
		cur = trace.NewUtilCursor()
	}
	cur.Reset(s.s.Params(i))
	return cur
}

func (s *streamSource) releaseUtil(u utilReader) {
	s.free = append(s.free, u.(*trace.UtilCursor))
}

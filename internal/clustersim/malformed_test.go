package clustersim

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vmdeflate/internal/trace"
)

// csvHeader is trace.WriteAzureCSV's header row.
const csvHeader = "id,class,cores,memory_mb,start,end,cpu_util\n"

// guardedRun runs cfg, turning a panic into an error and a run that
// does not finish within a generous bound into a test failure, so a
// malformed trace that crashes or hangs the engine fails the test
// instead of the test binary.
func guardedRun(t *testing.T, cfg Config) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestRunRejectsMalformedTrace: every VM shape no run can replay is an
// error from Run — and from NewEngine with the cluster size pinned, and
// from the public sizing helpers — whether the trace was built in
// memory or read from CSV, never a panic, a hang or a silently wrong
// Result. The CSV reader rejects all but the empty series itself
// (which round-trips, for the feasibility analyses).
func TestRunRejectsMalformedTrace(t *testing.T) {
	good := trace.VMRecord{ID: "ok", Class: trace.Interactive, Cores: 4, MemoryMB: 8192,
		Start: 0, End: 3600, CPUUtil: []float64{40, 50}}
	cases := []struct {
		name string
		bad  func(vm *trace.VMRecord)
		row  string // the same VM as a CSV row
	}{
		{"NaN start", func(vm *trace.VMRecord) { vm.Start = math.NaN() },
			"bad,interactive,4,8192,NaN,3600,40;50"},
		{"infinite end", func(vm *trace.VMRecord) { vm.End = math.Inf(1) },
			"bad,interactive,4,8192,0,+Inf,40;50"},
		{"end before start", func(vm *trace.VMRecord) { vm.Start, vm.End = 3600, 600 },
			"bad,interactive,4,8192,3600,600,40;50"},
		{"zero cores", func(vm *trace.VMRecord) { vm.Cores = 0 },
			"bad,interactive,0,8192,0,3600,40;50"},
		{"NaN memory", func(vm *trace.VMRecord) { vm.MemoryMB = math.NaN() },
			"bad,interactive,4,NaN,0,3600,40;50"},
		{"negative memory", func(vm *trace.VMRecord) { vm.MemoryMB = -1 },
			"bad,interactive,4,-1,0,3600,40;50"},
		{"empty utilisation series", func(vm *trace.VMRecord) { vm.CPUUtil = nil },
			"bad,interactive,4,8192,0,3600,"},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/eager", func(t *testing.T) {
			bad := good
			bad.ID = "bad"
			tc.bad(&bad)
			other := good
			tr := &trace.AzureTrace{VMs: []*trace.VMRecord{&other, &bad}}
			if err := guardedRun(t, Config{Trace: tr}); err == nil || strings.HasPrefix(err.Error(), "panic") {
				t.Fatalf("Run: got %v, want a validation error", err)
			}
			if _, err := NewEngine(Config{Trace: tr, BaselineServers: 2}); err == nil {
				t.Error("NewEngine with pinned BaselineServers: want error")
			}
			if _, err := PeakServerLowerBound(tr, DefaultServerCapacity()); err == nil {
				t.Error("PeakServerLowerBound: want error")
			}
			if _, err := BaselineServerCount(tr, DefaultServerCapacity()); err == nil {
				t.Error("BaselineServerCount: want error")
			}
		})
		t.Run(tc.name+"/csv", func(t *testing.T) {
			in := csvHeader + "ok,interactive,4,8192,0,3600,40;50\n" + tc.row + "\n"
			tr, err := trace.ReadAzureCSV(strings.NewReader(in))
			if err == nil {
				err = guardedRun(t, Config{Trace: tr})
			}
			if err == nil || strings.HasPrefix(err.Error(), "panic") {
				t.Fatalf("got %v, want a validation error", err)
			}
		})
	}
}

// FuzzReadAzureCSV fuzzes the CSV boundary through the engine:
// ReadAzureCSV never panics, NewEngine over any trace it accepts
// returns or errors, and accepted traces of at most 8 VMs within a
// one-day horizon ([0, 86400] s) run to completion, in deflation mode with pool planning
// and SLO metering and in preemption mode.
func FuzzReadAzureCSV(f *testing.F) {
	cfg := trace.DefaultAzureConfig()
	cfg.NumVMs, cfg.Duration, cfg.Seed = 6, 86400, 1
	var buf bytes.Buffer
	if err := trace.WriteAzureCSV(&buf, trace.GenerateAzure(cfg)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, row := range []string{
		"bad,interactive,4,8192,NaN,3600,40;50",
		"bad,interactive,4,8192,0,+Inf,40;50",
		"bad,interactive,4,8192,3600,600,40;50",
		"bad,interactive,0,8192,0,3600,40;50",
		"bad,interactive,4,NaN,0,3600,40;50",
		"bad,interactive,4,-1,0,3600,40;50",
		"bad,interactive,4,8192,0,3600,",
		"bad,interactive,4,8192,0,3600,40;NaN",
		"ok,interactive,4,8192,0,3600,40\nok,unknown,2,4096,0,600,10",
		"z,interactive,48,131072,600,600,90\nw,unknown,48,131072,600,1200,5;5",
	} {
		f.Add(csvHeader + row + "\n")
	}
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := trace.ReadAzureCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		e, err := NewEngine(Config{Trace: tr})
		if err != nil || e == nil || len(tr.VMs) > 8 {
			return
		}
		for _, vm := range tr.VMs {
			if vm.Start < 0 || vm.End > 86400 {
				return
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("deflation run over an accepted trace: %v", err)
		}
		if _, err := Run(Config{Trace: tr, Partitioned: true, SLO: &SLOConfig{}}); err != nil {
			t.Fatalf("partitioned SLO run over an accepted trace: %v", err)
		}
		if _, err := Run(Config{Trace: tr, Mode: ModePreemption}); err != nil {
			t.Fatalf("preemption run over an accepted trace: %v", err)
		}
	})
}

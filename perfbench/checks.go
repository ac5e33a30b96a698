package main

import (
	"fmt"
	"reflect"

	"vmdeflate/internal/clustersim"
)

// cutVMs is the size of the reference-placement cut: small enough for
// the brute-force placement path, large enough to deflate and reject.
const cutVMs = 3000

// checkResult verifies one run's Result against its input: every trace
// VM arrived exactly once and was either admitted or rejected.
func checkResult(res *clustersim.Result, traceLen int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Arrivals != traceLen {
		return fmt.Errorf("arrivals %d != trace length %d", res.Arrivals, traceLen)
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		return fmt.Errorf("admitted %d + rejected %d != arrivals %d", res.Admitted, res.Rejected, res.Arrivals)
	}
	return nil
}

// sameResult reports whether two runs of one workload produced the
// identical Result, as the repository's differential suites compare.
func sameResult(a, b *clustersim.Result) bool {
	return reflect.DeepEqual(a, b)
}

// checkReferenceCut runs a cutVMs-VM trace from the same generator and
// knobs under the default engine and under Config.ReferencePlacement,
// and requires identical Results once the pressure-scan meters (which
// legitimately differ between the pruned descent and the full scan) are
// zeroed.
func checkReferenceCut(w workload, seed int64) error {
	cut := w.scaled(min(cutVMs, w.vms))
	results := make([]*clustersim.Result, 2)
	for i, reference := range []bool{false, true} {
		s, err := cut.newSetup(seed)
		if err != nil {
			return err
		}
		if reference {
			// The reference path is chosen at NewEngine time, so the
			// timed engine above is rebuilt with the flag set.
			s.cfg.ReferencePlacement = true
			if s.engine, err = clustersim.NewEngine(s.cfg); err != nil {
				return err
			}
		}
		res, err := s.engine.Run()
		if err != nil {
			return err
		}
		if err := checkResult(res, cut.vms); err != nil {
			return fmt.Errorf("reference cut: %w", err)
		}
		res.PressureScored, res.PressurePruned = 0, 0
		results[i] = res
	}
	if !sameResult(results[0], results[1]) {
		return fmt.Errorf("reference cut: %d-VM Result differs between the default engine and ReferencePlacement", cut.vms)
	}
	return nil
}

# Developer/CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, race-enabled tests, bounded fuzzing of the
# capacity index, a one-shot smoke of the
# parallel sweep benchmark, the zero-allocation gate on the placement
# policy hot path, and the 50k-VM capacity-index scale smoke (whose
# BENCH_scale.json report CI archives as a build artifact).

GO ?= go

.PHONY: build test vet race race-placement fuzz bench-smoke bench-allocs bench-scale bench-scale-1m bench-scale-10m bench-matrix bench-revocation bench-slo bench-risk bench-pressure bench ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race shard over the concurrent paths around placement: the
# sharded sample pass and sharded reinflation (with their buffered
# notifications and dirty marks), concurrent manager and engine use,
# batch placement, capacity-shock evacuations and the revocation churn
# suite, the risk-aware (hazard-banded + headroom-gated) placement
# paths and the pressure descent — a fast, explicit signal beside the
# full `race` run.
race-placement:
	$(GO) test -race -run 'PlaceVMs|Sharded|Shards|Concurrent|Preemption|Revo|Shock|Resize|Risk|Hazard|Headroom|Pressure' ./internal/cluster ./internal/clustersim

# Bounded native fuzzing of the capacity index package: the dirty set
# and the surplus index against their map oracles. -fuzz takes one
# target per package run, so each target gets its own run.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDirtySet$$' -fuzztime $(FUZZTIME) ./internal/cluster/capindex
	$(GO) test -run '^$$' -fuzz '^FuzzIndex$$' -fuzztime $(FUZZTIME) ./internal/cluster/capindex

# One iteration of the 10k-VM sweep benchmarks: proves the parallel
# engine end-to-end without the cost of a full benchmark session.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Sweep10k' -benchtime 1x .

# Zero-allocation gate: the steady-state PlaceOn/Reinflate policy pass,
# the surplus query with its dirty sync and existence check (risk-blind
# AND hazard-banded with the headroom gate active), the bound-pruned
# pressure scan, the SLO-metered sample pass (closed-form
# queueing math included), the calendar event queue's steady-state
# churn, the dirty-set drain of a 4096-server fleet AND the 4096-entry
# surplus index's key moves, free-only updates and FirstFit queries must
# all report 0 allocs/op, or the build fails. The awk gate
# names each required benchmark explicitly (matching on the name with
# its -GOMAXPROCS suffix stripped), so a renamed or silently skipped
# benchmark fails the build instead of shrinking the gate. The
# benchmark output is kept in BENCH_allocs.txt for CI to archive.
bench-allocs:
	$(GO) test -run '^$$' -bench 'PolicyPassSteadyState|SurplusSteadyState|RiskSurplusSteadyState|PressureScan' -benchmem ./internal/cluster | tee BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'SamplePassSLOSteadyState|CalendarQueueSteadyState' -benchmem ./internal/clustersim | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'DirtySetDrain|IndexSet|FirstFit' -benchmem ./internal/cluster/capindex | tee -a BENCH_allocs.txt
	@awk 'BEGIN { want["BenchmarkPolicyPassSteadyState"]; want["BenchmarkSurplusSteadyState"]; \
			want["BenchmarkRiskSurplusSteadyState"]; want["BenchmarkPressureScan"]; \
			want["BenchmarkSamplePassSLOSteadyState"]; want["BenchmarkCalendarQueueSteadyState"]; \
			want["BenchmarkDirtySetDrain"]; want["BenchmarkIndexSet"]; want["BenchmarkFirstFit"] } \
		/^Benchmark/ && $$(NF) == "allocs/op" { name = $$1; sub(/-[0-9]+$$/, "", name); \
			if (name in want) { seen[name] = 1; allocs = $$(NF-1) + 0; \
				if (allocs > 0) { failed = 1; print "FAIL: " name " allocates " allocs " allocs/op (want 0)" } } } \
		END { for (n in want) if (!(n in seen)) { failed = 1; print "FAIL: benchmark " n " missing from output" } \
		if (failed) exit 1; \
		print "OK: policy + surplus (risk-blind + risk-aware) + pressure scan + SLO sample + calendar queue + dirty-set drain + surplus index set/query steady states at 0 allocs/op" }' BENCH_allocs.txt

# Cloud-scale single-run smoke: one sequential 50k-VM deflation run
# through the capacity-indexed manager, reported to
# BENCH_scale.json so the perf trajectory is tracked PR-over-PR.
bench-scale:
	$(GO) run ./cmd/benchreport -scale 50000 -scaleout BENCH_scale.json

# The 1M-VM point: an order of magnitude past the CI smoke, for
# measuring the zero-alloc sequential engine at full cloud scale.
bench-scale-1m:
	$(GO) run ./cmd/benchreport -scale 1000000 -scaleout BENCH_scale_1m.json

# The 10M-VM point, streamed: the trace is never materialised — VM
# parameters generate at arrival, utilisation synthesizes through
# per-VM cursors — so resident memory is O(live VMs). The run fails
# unless peak heap stays >= 3.5x below what the eager generator would
# allocate (per-lifetime utilisation slices; the report also carries the
# ~30x larger horizon-resident denominator for context).
bench-scale-10m:
	$(GO) run ./cmd/benchreport -scale 10000000 -stream -scaleout BENCH_scale_10m.json

# Measured multi-core matrix: GOMAXPROCS x shards with per-phase wall
# times (commit/sample/reinflate) and peak heap,
# plus aggregate throughput from concurrent share-nothing runs. Fails
# on machines with >= 4 cores unless aggregate throughput scales.
bench-matrix:
	$(GO) run ./cmd/benchreport -matrix 100000 -matrixout BENCH_matrix.json

# Revocation-churn smoke: the 50k-VM run under Poisson server
# revocations (2/server/day), measuring deflation-first evacuation
# throughput (evacuations/sec in BENCH_revocation.json).
bench-revocation:
	$(GO) run ./cmd/benchreport -scale 50000 -shocks poisson -scaleout BENCH_revocation.json

# SLO frontier smoke: the 50k-VM bursty run comparing proportional
# against latency-aware deflation on SLO violations at matched admitted
# load, across overcommitment points and under revocation shocks
# (BENCH_slo.json). Fails if latency-aware does not dominate: strictly
# fewer violation-seconds at every calm overcommitment point, and a
# majority of points plus the net total under revocation shocks.
bench-slo:
	$(GO) run ./cmd/benchreport -slo 50000 -sloout BENCH_slo.json

# Revocation-risk frontier smoke: portfolio server mixes (sweeping the
# cheap revocation-heavy spot slice) run risk-blind vs risk-aware —
# hazard-banded placement plus forecast-headroom admission — under rack
# shocks (BENCH_risk.json). Fails unless risk-aware strictly cuts
# displaced downtime and SLO violation-seconds on every mix at
# near-equal admitted revenue, cuts shock kills fleet-wide, and fleet
# cost falls monotonically as the spot share grows.
bench-risk:
	$(GO) run ./cmd/benchreport -risk 4000 -riskout BENCH_risk.json

# Pressure-index differential perf gate: a high-overcommit 100k-VM run
# (pressure scans dominate) executed twice — bound-pruned descent vs
# the retained full linear scan — on one trace. Fails unless the two
# runs' results are identical (up to the scan meters) AND the pruned
# run's wall clock is strictly lower (BENCH_pressure.json).
bench-pressure:
	$(GO) run ./cmd/benchreport -pressure 100000 -pressureout BENCH_pressure.json

# The full reproduction benchmark suite (all figures).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

ci: build vet race fuzz bench-smoke bench-allocs bench-scale bench-revocation bench-slo bench-risk bench-pressure

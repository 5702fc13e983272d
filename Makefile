# Development entry points. `make check` is what CI enforces on every PR.

GO ?= go

.PHONY: check fmtcheck vet doclint build test race bench bench-micro bench-compare bench-regress bench-regress-rebase benchsuite benchsuite-smoke benchsuite-report fuzz-smoke fuzz-diff serve-smoke telemetry-smoke chaos-smoke

check: fmtcheck vet doclint build race

# Formatting gate: fails listing every file gofmt would rewrite.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation gate: every package needs a package doc comment, and every
# exported identifier in the engine and serve packages needs its own.
doclint:
	$(GO) run ./cmd/zac-doclint -exported internal/engine,internal/serve ./internal ./cmd ./examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench 'BenchmarkSuite(Sequential|Parallel)' -benchtime 2x .

# Placement hot-path micro-benchmarks (ISSUE 3): JV matching, SA initial
# placement, and the full BuildPlan pipeline, with allocation counts.
bench-micro:
	$(GO) test -run xxx -bench 'BenchmarkJVDense|BenchmarkJVSparse|BenchmarkSAInitial|BenchmarkBuildPlan' -benchmem ./internal/matching ./internal/place

# Diff the micro-benchmarks against a baseline ref (default HEAD) and emit
# BENCH_3.json: make bench-compare REF=<ref>.
REF ?= HEAD
bench-compare:
	./scripts/bench-compare.sh $(REF)

# Regression gate: observatory run + Mann-Whitney gate vs the store's
# previous commit on this machine; falls back to the >20% raw threshold vs
# the recorded BENCH_3.json numbers when the store has no comparable
# baseline yet, and emits BENCH_4.json either way.
bench-regress:
	./scripts/bench-regress.sh

# Performance observatory (ISSUE 7): full micro matrix with statistical
# repetitions into the persistent store, for trend queries and the
# bench-regress gate. `zac-benchsuite -h` lists the other surfaces
# (trend, report, gate, export).
benchsuite:
	$(GO) run ./cmd/zac-benchsuite run -matrix micro -reps 10 -store .zac-benchstore -progress

# Render the observatory store as a markdown report on stdout.
benchsuite-report:
	$(GO) run ./cmd/zac-benchsuite report -store .zac-benchstore

# Observatory smoke (CI): two smoke runs populate a throwaway store, a
# trend query spans both, the gate passes a noise-only rerun and flags a
# seeded 2× slowdown, and the report/export surfaces render.
benchsuite-smoke:
	./scripts/benchsuite-smoke.sh

# Hardware-independent gate: regenerate the baseline ON THIS MACHINE at the
# commit that recorded BENCH_3.json (throwaway worktree → BENCH_local.json),
# then apply the 20% threshold against those local numbers.
bench-regress-rebase:
	./scripts/bench-regress.sh --rebase

# Fuzz gate: the differential oracle over the pinned workload specs — the
# front-end checks (QASM round trip, resynthesis, statevector equivalence),
# every registry compiler's checks (sanity, ZAIR replay, resource
# accounting, repeat-compile determinism) and the cross-compiler checks
# (compile-outcome agreement, ablation fidelity ordering) — printing the
# per-class divergence summary with feature counters. Nightly-scale runs:
# `go run ./cmd/zac-fuzz -duration 10m`.
fuzz-smoke:
	$(GO) run ./cmd/zac-fuzz -smoke

# Coverage-guided differential fuzzing: the smoke specs seed a mutation
# loop (spec parameters + gate-level edits) steered by per-pass and
# planner-branch feature counters; divergences shrink into corpus/.
# Longer random runs: `go run ./cmd/zac-fuzz -n 100 -mutate 200`.
fuzz-diff:
	$(GO) run ./cmd/zac-fuzz -smoke -mutate 64 -corpus corpus

# Boot zac-serve against a throwaway cache dir, probe /healthz, compile one
# circuit, and check /metrics — the same smoke CI runs.
serve-smoke:
	./scripts/serve-smoke.sh

# Telemetry gate: boot zac-serve with tracing + JSON logs, compile once,
# assert the trace covers admission, both cache tiers, and every pipeline
# pass, and that the Chrome trace_event export (live and -traceout) is
# valid JSON.
telemetry-smoke:
	./scripts/telemetry-smoke.sh

# Resilience gate: the pinned-seed fault-injection suites (admission
# shedding, deadline mapping, journal replay, disk breaker trip/recovery,
# cache self-healing under torn writes) plus an end-to-end crash-recovery
# drill against the zac-serve binary (journal replay on boot, SIGTERM
# drain).
chaos-smoke:
	./scripts/chaos-smoke.sh

# Targets mirror the CI pipeline (.github/workflows/ci.yml): a change
# that passes `make ci` locally passes CI.

GO ?= go
ALMVET := bin/almvet

.PHONY: all build test fmt-check race vet fix-check lint-test fuzz-smoke bench bench-alloc bench-compare bench-smoke bench-sweep chaos chaos-smoke metrics-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when a Go file is not gofmt-formatted. The analyzer
# fixtures under testdata/ keep their deliberate layout, and bench/out/
# holds the benchmark's build cache, so both are skipped.
fmt-check:
	@out=$$(gofmt -l . | grep -v -e '/testdata/' -e '^bench/out/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# vet builds the repo's own vettool and runs the full almvet suite —
# the syntax-level analyzers (detnow, droppederr, hotalloc, locksafe,
# seedflow) and the flow-sensitive ones (maporder, timerflow,
# allocflow) — through `go vet`, which caches verdicts per package
# against the tool binary's content hash.
vet: $(ALMVET)
	$(GO) vet -vettool=$(CURDIR)/$(ALMVET) ./...

# fix-check asserts that `almvet -fix` has nothing left to do: the
# dry-run prints a unified diff of every suggested fix without touching
# the tree and exits non-zero when the diff is non-empty or a
# diagnostic has no fix. A failure means someone committed a finding
# instead of applying `bin/almvet -fix ./...` or annotating it.
fix-check: $(ALMVET)
	./$(ALMVET) -fix -diff ./...

$(ALMVET): FORCE
	$(GO) build -o $(ALMVET) ./cmd/almvet

FORCE:

# lint-test runs only the analyzer fixture suites — fast feedback when
# hacking on internal/lint.
lint-test:
	$(GO) test ./internal/lint/...

# fuzz-smoke searches FuzzAllocate for 10 s: random scripts of ports,
# flows, capacity changes, rate caps and cancels, each step checked
# against the map-based oracle allocator and a max-min fairness
# certificate (DESIGN.md §10). Plain `go test` replays only the
# checked-in corpus (internal/fairshare/testdata/fuzz/FuzzAllocate); a
# crasher found here belongs in that corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAllocate -fuzztime 10s ./internal/fairshare

# bench runs the engine performance harness — per-figure benchmarks plus
# the event-engine microbenchmarks (timer churn, fetch-session churn,
# heap footprint under the Fig. 4 fault load) — and refreshes the
# checked-in BENCH_engine.json baseline. Compare against `git diff
# BENCH_engine.json` before committing a regression.
bench:
	$(GO) run ./cmd/almbench -perf -perf-out BENCH_engine.json

# bench-alloc is the allocation-budget CI gate: re-measures the harness
# and fails if any benchmark exceeds its budget (budget × (1+tolerance),
# declared in internal/perf and recorded in BENCH_engine.json). Catches
# a reintroduced per-fetch Sprintf or a lost free list, not allocator
# noise.
bench-alloc:
	$(GO) run ./cmd/almbench -perf -perf-out '' -check-budgets

# bench-sweep times the full 1x-scale paper sweep (every experiment) at
# 1 and 8 sweep workers and folds the wall-clock results into
# BENCH_engine.json (entries paper_sweep_1x_workers{1,8}), leaving the
# rest of the baseline untouched. Slow — two full paper-scale sweeps —
# so it is a manual target, not part of `make ci`. Compare runs with
# `make bench-compare OLD=old.json` like any other baseline change.
bench-sweep:
	$(GO) run ./cmd/almbench -perf-sweep -perf-out BENCH_engine.json

# bench-compare diffs a saved baseline against the checked-in
# BENCH_engine.json: per-benchmark ns/op, B/op and allocs/op deltas.
# Usage: make bench-compare OLD=old.json
bench-compare:
	$(GO) run ./cmd/almbench -compare $(OLD)

# bench-smoke compiles and runs every benchmark exactly once — the CI
# guard that keeps the harness from bit-rotting without paying full
# measurement cost.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/fairshare ./internal/perf

# chaos sweeps 50 seeded random gray-failure schedules under all four
# modes and asserts the recovery invariants (DESIGN.md §11). A failing
# seed prints a one-line reproducer.
chaos:
	$(GO) run ./cmd/almrun -chaos -seeds 50

# chaos-smoke is the CI-sized batch: a fixed handful of seeds under the
# race detector.
chaos-smoke:
	$(GO) run -race ./cmd/almrun -chaos -seed 11 -seeds 8

# metrics-smoke runs the paper's Fig. 4 scenario (Terasort, MOF-node
# failure at 55% job progress, stock YARN) at 1/8 scale twice and
# asserts the snapshots are byte-identical. almrun validates the
# Prometheus text through internal/metrics/lint before writing.
metrics-smoke:
	$(GO) run ./cmd/almrun -workload terasort -size-gb 12.5 -reduces 20 -mode yarn -fail mof-node -at 0.55 -metrics bin/metrics-a.prom
	$(GO) run ./cmd/almrun -workload terasort -size-gb 12.5 -reduces 20 -mode yarn -fail mof-node -at 0.55 -metrics bin/metrics-b.prom
	cmp bin/metrics-a.prom bin/metrics-b.prom

ci: build test fmt-check fuzz-smoke race vet fix-check bench-smoke bench-alloc chaos-smoke metrics-smoke

clean:
	rm -rf bin
	$(GO) clean ./...

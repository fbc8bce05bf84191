# Targets mirror the CI pipeline (.github/workflows/ci.yml): a change
# that passes `make ci` locally passes CI.

GO ?= go
ALMVET := bin/almvet

.PHONY: all build test race vet fix-check lint-test fuzz-smoke bench bench-alloc bench-compare bench-smoke bench-sweep chaos chaos-smoke shuffle-smoke tournament-smoke metrics-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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

# shuffle-smoke sweeps a fixed seed batch of the remote-shuffle chaos
# matrix ({yarn,alm} with the tier enabled, tier faults in the draw) and
# diffs the deterministic sweep transcript against the checked-in
# golden. Catches both invariant violations and any drift in the seeded
# tier fault schedules.
shuffle-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/almrun -chaos -shuffle=remote -seed 11 -seeds 4 > bin/shuffle-chaos.txt
	diff -u internal/shuffletier/testdata/shuffle-chaos-11-4.golden bin/shuffle-chaos.txt

# tournament-smoke races every registered recovery policy head-to-head
# over a small seeded chaos batch (3 fault classes, one seed that hits
# the speculation constraints so regret/backup columns are non-zero) and
# diffs the deterministic league table against the checked-in golden.
# The same golden is pinned by internal/tournament's TestLeagueGolden;
# regenerate both with:
#   go test ./internal/tournament -run TestLeagueGolden -update-league
tournament-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/almrun -tournament -seed 28 -seeds 6 > bin/tournament-league.txt
	diff -u internal/tournament/testdata/league-28-6.golden bin/tournament-league.txt

# metrics-smoke runs the paper's Fig. 4 scenario (Terasort, MOF-node
# failure at 55% job progress, stock YARN) at 1/8 scale twice and
# asserts the snapshots are byte-identical. almrun validates the
# Prometheus text through internal/metrics/lint before writing.
metrics-smoke:
	$(GO) run ./cmd/almrun -workload terasort -size-gb 12.5 -reduces 20 -mode yarn -fail mof-node -at 0.55 -metrics bin/metrics-a.prom
	$(GO) run ./cmd/almrun -workload terasort -size-gb 12.5 -reduces 20 -mode yarn -fail mof-node -at 0.55 -metrics bin/metrics-b.prom
	cmp bin/metrics-a.prom bin/metrics-b.prom

ci: build test fuzz-smoke race vet fix-check bench-smoke bench-alloc chaos-smoke shuffle-smoke tournament-smoke metrics-smoke

clean:
	rm -rf bin
	$(GO) clean ./...

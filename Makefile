# Targets mirror the CI pipeline (.github/workflows/ci.yml): every CI
# step is `make <target>` for one prerequisite of `ci`, so a change that
# passes `make ci` locally passes CI. TestCIMatchesMakefile enforces the
# one-for-one match.

GO ?= go
ALMVET := bin/almvet

.PHONY: all build test fmt-check race vet lint-test fuzz-smoke bench-alloc bench-smoke chaos chaos-smoke ci clean

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

# vet builds the repo's own analyzer suite, almvet, and runs it over the
# packages `go list ./...` lists (nested modules such as bench/ are
# skipped): the syntax-level analyzers (detnow, droppederr, hotalloc,
# locksafe, seedflow) and the flow-sensitive ones (timerflow,
# allocflow). almvet loads and type-checks the packages itself, with no
# build cache. It fails on every finding, fixable or not;
# `bin/almvet -fix ./...` applies the suggested fixes.
vet: $(ALMVET)
	$(ALMVET) ./...

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
# certificate (DESIGN.md §10). FuzzAllocateBatched then searches 10 s
# more with some of those changes batched inside one engine event, so
# several changes share one deferred allocation. Plain `go test` replays
# only the checked-in corpora (internal/fairshare/testdata/fuzz/); a
# crasher found here belongs in its target's corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAllocate$$' -fuzztime 10s ./internal/fairshare
	$(GO) test -run '^$$' -fuzz '^FuzzAllocateBatched$$' -fuzztime 10s ./internal/fairshare

# bench-alloc is the allocation-budget CI gate: runs every entry of the
# engine harness (internal/perf) through testing.Benchmark and fails if
# any exceeds its budget (budget × (1+tolerance), declared in
# internal/perf). It catches a regression larger than its entry's
# tolerance: one extra allocation per op on the zero-tolerance
# timer_churn entry, or a whole-history copy such as the per-snapshot
# ALG output copy (2× alg_reduce_snapshots' budget). A per-fetch
# Sprintf or a dropped preallocation stays under the 20% tolerance;
# hotalloc and allocflow in `make vet` catch those. Host time is
# measured by the benchmark of record, `bash bench/run.sh`.
bench-alloc:
	$(GO) run ./cmd/almbench -perf

# bench-smoke compiles and runs every sim and fair-share benchmark
# (BenchmarkAllocateWide and BenchmarkAllocateComponents among them)
# exactly once — the CI guard that keeps them from bit-rotting without
# paying full measurement cost. The harness entries run in bench-alloc.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/fairshare

# chaos sweeps 50 seeded random gray-failure schedules under all four
# modes and asserts the recovery invariants (DESIGN.md §11). A failing
# seed prints a one-line reproducer.
chaos:
	$(GO) run ./cmd/almrun -chaos -seeds 50

# chaos-smoke is the CI-sized batch: a fixed handful of seeds under the
# race detector.
chaos-smoke:
	$(GO) run -race ./cmd/almrun -chaos -seed 11 -seeds 8

ci: build test fmt-check fuzz-smoke race vet bench-smoke bench-alloc chaos-smoke

clean:
	rm -rf bin
	$(GO) clean ./...

# Targets mirror the CI pipeline (.github/workflows/ci.yml): every CI
# step is `make <target>` for one prerequisite of `ci`, so a change that
# passes `make ci` locally passes CI. TestCIMatchesMakefile enforces the
# one-for-one match.

GO ?= go
ALMVET := bin/almvet

.PHONY: all build test fmt-check race vet lint-test fuzz-smoke bench-alloc bench-smoke chaos chaos-smoke scale-probe sweep-1x ci clean

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

# vet runs the standard `go vet` over the module, then builds the repo's
# own analyzer suite, almvet, and runs it over the packages `go list
# ./...` lists (nested modules such as bench/ are skipped): detnow,
# droppederr, locksafe and seedflow, all syntax-level checks of
# correctness. almvet loads and type-checks the packages itself, with no
# build cache, and fails on every finding.
vet: $(ALMVET)
	$(GO) vet ./...
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
# more with some of those changes batched at one instant, in one engine
# event or several, so several changes share one deferred allocation.
# FuzzQueue then searches 10 s of scripts of schedules, posts, stops, reschedules, retimes and runs on
# the sim's timing wheel against the sorted-list reference loop.
# FuzzHostIndex then searches 10 s of scripts of moves, deliveries,
# session changes and wait-advisory flips on a reducer's host index
# (internal/engine) against a map-per-host oracle and the fetch walk. FuzzRestore then searches 10 s of one-reducer jobs (workload,
# mode, checkpointing, two reducer failure times) for a completed run
# whose output differs from the fault-free run's (internal/engine).
# Plain `go test` replays only the checked-in corpora
# (testdata/fuzz/ under internal/fairshare, internal/sim and
# internal/engine); a crasher found here belongs in its target's corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAllocate$$' -fuzztime 10s ./internal/fairshare
	$(GO) test -run '^$$' -fuzz '^FuzzAllocateBatched$$' -fuzztime 10s ./internal/fairshare
	$(GO) test -run '^$$' -fuzz '^FuzzQueue$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzHostIndex$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s ./internal/engine

# bench-alloc is the allocation CI gate: runs every entry of the engine
# harness (internal/perf) through testing.Benchmark and fails if its
# allocs/op or B/op sits more than perf.Tolerance (0.1%) from the pin
# declared beside it. Above the pin is a regression, as small as one
# per-fetch Sprintf or a dropped preallocation on a harness path; the
# message prints the pprof commands that locate it. Below the pin the
# pin is stale, and the message gives the values to re-pin. The pins
# hold for the Go toolchain CI installs (go1.24.0). Host time is
# measured by the benchmark of record, `bash bench/run.sh`.
bench-alloc:
	$(GO) run ./cmd/almbench -perf

# bench-smoke compiles and runs every sim and fair-share benchmark
# (BenchmarkAllocateWide, BenchmarkAllocateComponents and
# BenchmarkAllocateFetchMesh among them) exactly once — the CI guard
# that keeps them from bit-rotting without paying full measurement cost.
# The harness entries run in bench-alloc.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/fairshare

# chaos sweeps 50 seeded random gray-failure schedules over each check
# matrix — all four modes with local shuffle, then yarn and alm with the
# remote shuffle tier and tier faults in the draw — and asserts the
# recovery invariants (DESIGN.md §11). A failing seed prints a one-line
# reproducer.
chaos:
	$(GO) run ./cmd/almrun -chaos -seeds 50
	$(GO) run ./cmd/almrun -chaos -shuffle=remote -seeds 50

# chaos-smoke is the CI-sized batch: a fixed handful of seeds under the
# race detector.
chaos-smoke:
	$(GO) run -race ./cmd/almrun -chaos -seed 11 -seeds 8

# scale-probe runs one fault-free SFM terasort job at each of 1,000,
# 2,000, 4,000 and 10,000 nodes (20 per rack, 2 maps per node, 100
# reducers, seed 11, no trace) and prints host time, CPU time, max RSS,
# the Go heap live at the job's end, events, HostVisits and virtual
# duration per size. It is tooling for
# fetch-choice and memory work, not a CI gate: the 10,000-node job takes
# about 15 s and 800 MB. The binary runs directly, not under `go run`,
# because a process's max RSS starts at its parent's.
scale-probe:
	$(GO) build -o bin/almbench ./cmd/almbench
	bin/almbench -scale-probe

# sweep-1x runs every experiment at paper scale on one worker and ends
# the tables with the sweep's max RSS. It is tooling for memory work, not
# a CI gate (about 16 s and 80 MB on a shared 2-core VM). Like
# scale-probe, the binary runs directly, so its max RSS is its own.
sweep-1x:
	$(GO) build -o bin/almbench ./cmd/almbench
	bin/almbench -scale 1 -workers 1

ci: build test fmt-check fuzz-smoke race vet bench-smoke bench-alloc chaos-smoke

clean:
	rm -rf bin
	$(GO) clean ./...

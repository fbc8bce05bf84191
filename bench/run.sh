#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh                       # all four workloads, seed 11
#   bash bench/run.sh --workload gray_storm --seed 23 --seconds 25 --trace 0
#
# Every file the build and the run write stays under bench/out/: the Go
# build cache, temporary files and the binary in bench/out/.build/,
# profiles, spans and saved sets beside it.
set -euo pipefail

root=$PWD
build="$root/bench/out/.build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -C "$root/bench" -o "$build/almbench" .
exec "$build/almbench" "$@"

#!/usr/bin/env bash
# Builds the ledger harness from source and runs it with the given flags,
# e.g. bash bench/run.sh --workload net-cold --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artefact, cache and temporary
# file stays under .bench_build/ in the repository.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/ledger" ./ledger
exec "$build/ledger" -root "$root" "$@"

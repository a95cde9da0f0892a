# Developer entry points. Everything is plain `go` underneath; the targets
# only pin the invocations CI and EXPERIMENTS.md reference.

GO ?= go

.PHONY: all build test race vet fmt-check lint fuzz-smoke bench bench-smoke serve-smoke fabric-smoke ledger-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages under the race detector: the mapper's
# evaluation pipeline, the memoization cache, the shared worker budget, the
# parallel consumers, the HTTP service, and the sharded search fabric.
race:
	$(GO) test -race ./internal/mapper ./internal/memo ./internal/par ./internal/network ./internal/serve ./internal/fabric

vet:
	$(GO) vet ./...

# Fails listing every Go file gofmt would rewrite. The ledger's build
# directory holds generated copies and is left out.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. staticcheck is not vendored and the target
# degrades to a notice when the binary is absent, so `make lint` is safe on
# a bare checkout; CI installs it and gets the real check.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Ten seconds of each native fuzzer: the exact Step-2 window algebra
# (periodic) and the prefix-table boundary assignment, signature and
# validity verdict against their references (mapper). `go test -fuzz` takes
# one target per run; a failing input is saved under the package's
# testdata/fuzz and replays in every later `go test`.
fuzz-smoke:
	$(GO) test ./internal/periodic -run '^$$' -fuzz '^FuzzUnionLength$$' -fuzztime 10s
	$(GO) test ./internal/periodic -run '^$$' -fuzz '^FuzzUnionMixedSpans$$' -fuzztime 10s
	$(GO) test ./internal/periodic -run '^$$' -fuzz '^FuzzIntersectLength$$' -fuzztime 10s
	$(GO) test ./internal/mapper -run '^$$' -fuzz '^FuzzAssignBounds$$' -fuzztime 10s

# Search & model benchmarks with allocation stats, appended to the JSON
# history in BENCH_mapper.json keyed by git SHA + date (see cmd/benchjson).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMapperSearch|BenchmarkModelThroughput|BenchmarkNetworkEval|BenchmarkGenerateOnly|BenchmarkServe|BenchmarkScoreBatch|BenchmarkFabric|BenchmarkTransformer' \
		-benchmem -benchtime=2s . ./internal/mapper ./internal/serve ./internal/fabric | tee /dev/stderr | $(GO) run ./cmd/benchjson -compare BENCH_mapper.json -out BENCH_mapper.json

# Two passes. First, one iteration of every benchmark in the repo (the
# batch-scoring benchmarks included): CI runs this so a benchmark that
# stops compiling or starts failing is caught on the PR, and
# the cmd/benchjson parser is exercised end to end; its -compare delta
# report against the checked-in BENCH_mapper.json is informational ONLY —
# single-iteration timings include one-time cold-start costs (empty memo
# caches, unwarmed evaluator scratch) that put them hundreds of times over
# the multi-iteration history for the caching benchmarks, so they must
# never gate. Second, the core memo-free benchmarks re-measured with real
# iteration counts, gated by -threshold: a > 400% ns/op regression against
# the history fails CI. The bound is far above runner noise on purpose —
# the gate is for catastrophic regressions, not jitter. No history entry is
# written by either pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./... | $(GO) run ./cmd/benchjson -compare BENCH_mapper.json > /dev/null
	$(GO) test -run '^$$' -bench '^(BenchmarkMapperSearch|BenchmarkModelThroughput|BenchmarkScoreBatch)$$' -benchmem -benchtime=0.5s . \
		| $(GO) run ./cmd/benchjson -compare BENCH_mapper.json -threshold 400 > /dev/null

# Black-box smoke test of the HTTP daemon: build cmd/servemodel, serve on a
# loopback port, run a search + cache-hit + malformed-request sequence over
# curl, and verify SIGTERM shuts it down gracefully.
serve-smoke:
	bash scripts/serve_smoke.sh

# Black-box smoke test of the sharded search fabric: two servemodel nodes on
# loopback ports, a fanned-out latmodel search that must match the local
# byte-for-byte, shard-counter metrics, and error-path checks.
fabric-smoke:
	bash scripts/fabric_smoke.sh

# A short seeded run of the end-to-end performance ledger (bench/): all four
# workloads, untraced and traced, five seconds each. The ledger exits
# non-zero on any op whose output differs from bench/golden and on any
# invalid run. Most validity checks are exact (a traced run's critical path
# must sum to its wall time, trace.diff_ns == 0), but serve-mix also marks a
# run invalid when its load generator falls behind its schedule (p99 lag over
# 5 ms), which depends on how busy the host is. The target is therefore not
# a CI step; see ROADMAP.md. At two seconds serve-mix's p90 rests on too few
# samples, so the window is five.
ledger-smoke:
	bash bench/run.sh --seed 1 --seconds 5

clean:
	rm -f benchjson-*.tmp

# Developer targets; `make check` is the pre-commit gate.
GO ?= go

.PHONY: build test race race-full vet bench bench-json bench-compare check serve difftest faulttest e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with concurrent hot paths: the parallel sweep, the
# metrics substrate, and the query service (admission + batching) —
# plus the refiner and the oracle harness, whose parallel cross-checks
# double as a race probe of the whole pipeline, and the resilience
# layer (snapshot loads race background rebuilds; the fault seam is
# armed from tests while workers run), and the trace ring buffer
# (concurrent span writers racing trace readers), and the sharded
# serving tier (scatter goroutines racing the breaker set and the
# round-robin replica cursors), and the WAL (group-commit leaders
# racing enqueuers, compaction-driven prunes, and health scrapes), and
# the pipeline core (per-worker refinement scratch beside the sync.Once
# Prepared cache that workers share) and the join views (readers racing
# epoch swaps).
race:
	$(GO) test -race ./internal/harness/ ./internal/obs/ ./internal/server/ ./internal/de9im/ ./internal/oracle/ ./internal/snapshot/ ./internal/fault/ ./internal/trace/ ./internal/shard/ ./internal/shard/router/ ./internal/wal/ ./internal/core/ ./internal/join/

# Every package under the race detector: the serving path shares one
# sweep engine (harness.Sweep) across the harness, the server and the
# commands and examples built on them, so a hand-picked list can miss a
# caller. Slow (minutes on two CPUs); CI runs it as its own job beside
# `make check`.
race-full:
	$(GO) test -race ./...

# Differential correctness run (see README "Correctness"): a fixed-seed
# sweep of generated lattice pairs through every production path,
# cross-checked against the independent brute-force oracle, plus the
# full shrunk-repro regression corpus. Bounded (~10s) so it can gate CI.
difftest:
	$(GO) test ./internal/oracle/ -count=1 -oracle.pairs=10000 -oracle.seed=1
	$(GO) test ./internal/server/ -count=1 -run 'TestMutationDifferentialOracle|TestMutationCrashReplayOracle'

# Fault-injection suite (see README "Resilience"): every injected
# corruption — torn header, truncated section, bit flip, ENOSPC
# mid-write, panic mid-rebuild, poisoned geometry pair — must end in
# quarantine + degraded serving + background recovery, never a process
# exit or a wrong answer.
faulttest:
	$(GO) test -count=1 ./internal/fault/ ./internal/snapshot/ ./internal/wal/ \
		./internal/server/ -run 'Fault|Corrupt|Truncat|Quarantine|Torn|BitFlip|Panic|Degraded|CrashRecovery|WarmStart|Hostile|ValidName|Retry|Circuit|Temporary|Backoff|Fsync|Floor|SilentlyAcks'
	$(GO) test -count=1 ./internal/harness/ -run 'PanicIsolated'

vet:
	$(GO) vet ./...

# Regression telemetry for the instrumented pipeline (see README
# "Observability"): the observed path and the disabled tracer must each
# stay within 5% of plain. The ZeroAlloc guards pin the hot path —
# interval kernels, scratch refinement, the full observed sweep — to
# zero heap allocations per pair (see README "Performance").
bench:
	$(GO) test -count=1 -run 'ZeroAlloc|AllocFootprint' ./internal/interval/ ./internal/de9im/ ./internal/core/ ./internal/server/
	$(GO) test -run xxx -bench 'BenchmarkObservedOverhead|BenchmarkTraceOverhead' -benchmem .
	$(GO) test -run xxx -bench BenchmarkRouterFanout -benchmem ./internal/shard/router/
	$(GO) test -run xxx -bench 'BenchmarkIngest|BenchmarkCompact' -benchmem ./internal/server/

# One point of the benchmark trajectory (see README "Tracing & benchmark
# trajectory"): a small fixed-seed benchrun suite written as JSON. CI
# runs this as a smoke test of the recording harness; the checked-in
# BENCH_N.json artifacts are produced by the full default suite
# (`go run ./cmd/benchrun -out BENCH_N.json -label BENCH_N`).
bench-json:
	$(GO) run ./cmd/benchrun -scale 0.05 -pairs 500 -trials 3 -label BENCH_SMOKE -out bench-smoke.json
	head -c 400 bench-smoke.json; echo

# Benchmark comparison smoke (see README "Performance"): re-runs the
# default suite at the checked-in baseline's workload parameters and
# diffs against BENCH_8.json, the latest point, with `-regress 0` — gating on the harness
# completing and the deterministic verdict fingerprints matching, never
# on absolute timings (machines differ). A fingerprint drift means the
# pipelines changed verdicts: a correctness failure, not a perf one.
bench-compare:
	$(GO) run ./cmd/benchrun -trials 1 -warmup 1 -label BENCH_CI -out bench-ci.json -compare BENCH_8.json -regress 0

# Multi-process end-to-end smoke of the sharded serving tier (see
# README "Sharded serving"): builds real topojoind + topojoinrouter
# binaries, runs a 3-shard fleet (one shard replicated) against a
# single-node reference, then SIGKILLs a replica (answers must stay
# complete) and an unreplicated shard (response must be flagged
# partial, healthz degraded — never an error or hang). The ingest
# drill SIGKILLs a real topojoind mid-compaction (fault-delayed
# fsync, torn .tmp on disk) and asserts every restart resumes from
# the last complete index epoch. The WAL drill SIGKILLs a -wal daemon
# with acked-but-uncompacted mutations (they must replay), forces a
# torn append (must 503, never silently ack) and asserts the restart
# truncates the torn tail instead of resurrecting it.
e2e:
	$(GO) test -count=1 -timeout 300s ./cmd/topojoinrouter/ -run TestE2EShardedFleet -v
	$(GO) test -count=1 -timeout 300s ./cmd/topojoind/ -run 'TestE2EIngestCrashRecovery|TestE2EIngestWALCrashDrill' -v

# Run the topology query service over a small generated workload
# (see README "Serving").
serve:
	$(GO) run ./cmd/topojoind -gen OLE,OPE -scale 0.1

check: build vet test race

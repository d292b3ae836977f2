GO ?= go

# Hot-path benchmark selection and budget for `make bench`. CI overrides
# BENCHTIME to keep runs short; the committed BENCH_results.json is
# produced at the default 1s.
BENCH ?= BenchmarkOperatorProcess|BenchmarkShedderDecision|BenchmarkPipelineShards/nodelay|BenchmarkPipelineSerial|BenchmarkEngineFanout/nodelay|BenchmarkCodecDecode|BenchmarkWALAppend|BenchmarkServerDurableIngest|BenchmarkClientSubmit
BENCHTIME ?= 1s
BENCHLABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

# Per-target budget for the fuzz smoke (CI runs this; long local fuzzing
# goes through `go test -fuzz` directly).
FUZZTIME ?= 10s

.PHONY: build test bench bench-skew bench-e2e bench-figures fmt vet doccheck fuzz-smoke stress loadtest killtest chaostest fairtest

build:
	$(GO) build ./...

test: vet doccheck
	$(GO) test -race ./...

# Run the hot-path benchmark suite with -benchmem and record the results
# in BENCH_results.json (appended as one labeled run), so every PR can
# regression-check against the recorded trajectory. The bench output goes
# through a temp file so a failing/panicking benchmark fails the target
# instead of being masked by the pipe. Before appending, the run is
# compared against the committed trajectory (>15% ns/op or any zero-alloc
# gate regression); the `-` prefix keeps the report non-blocking. The
# suite spans the facade package and internal/transport (the loopback
# durable-ingest benchmark needs the server's unexported test helpers).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime=$(BENCHTIME) -benchmem . ./internal/transport > bench.out \
		|| { cat bench.out; rm -f bench.out; exit 1; }
	cat bench.out
	-$(GO) run ./cmd/benchjson compare -baseline BENCH_results.json < bench.out
	$(GO) run ./cmd/benchjson -out BENCH_results.json -label $(BENCHLABEL) < bench.out
	rm -f bench.out

# Skew scaling gate: run the shard-scaling benchmarks (uniform delayed
# plus skewed hot-window/Zipf variants) with -benchmem, compare against
# the trajectory and append the run. Unlike `make bench`, the compare is
# blocking: benchjson hard-fails when kept_ev/s is non-monotone in the
# shard count or falls below shards=1 — but only when both the fresh run
# and the recorded trajectory were measured with GOMAXPROCS >= 4 (on
# smaller machines, which cannot measure real parallel speedup, the
# check degrades to advisory WARN lines and the target still passes).
# The nodelay variants are excluded on purpose: their ns/op is
# startup-dominated at short CI budgets, so they stay under the
# non-blocking `make bench` compare; the delayed/skew variants here are
# sleep-dominated and stable at any budget.
bench-skew:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineShards/(shards=|skew)' -benchtime=$(BENCHTIME) -benchmem . > bench-skew.out \
		|| { cat bench-skew.out; rm -f bench-skew.out; exit 1; }
	cat bench-skew.out
	$(GO) run ./cmd/benchjson compare -baseline BENCH_results.json < bench-skew.out \
		|| { rm -f bench-skew.out; exit 1; }
	$(GO) run ./cmd/benchjson -out BENCH_results.json -label $(BENCHLABEL) < bench-skew.out
	rm -f bench-skew.out

# The repository's end-to-end benchmark (BENCHMARK.json): four workloads
# through the whole loopback stack, one process each, ~20 s per
# workload. It is a Go module of its own, outside `go build ./...`; see
# benchmarks/README.md for the metrics and the paired-comparison recipe.
bench-e2e:
	$(GO) run -C benchmarks/e2e . -workload all

# Full figure-reproduction sweep (slow; one iteration each).
bench-figures:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Short fuzzing pass over the wire codec, the frame parser and the WAL
# replay scanner (go test allows one -fuzz pattern per invocation,
# hence separate runs). New crashers land in the packages'
# testdata/fuzz directories; commit them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzServerFrame$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/window

# Scheduling-sensitive selections, repeated at GOMAXPROCS 1 and 2, where
# a lost wake-up, a double release or a misordered reply actually shows:
# - runtime (race): the serial pipeline's flow control (waitCapacity/
#   releaseSlots), mid-message containment, submit-shape equivalence,
#   the overload cells (the control loop must fire at both), the
#   backlog table, and the sharded path — partitioner, shard replay,
#   epoch merge, the serial = sharded sweeps and the ring tests that
#   drive shard goroutines;
# - engine (race): the fan-out on the submitters' goroutines — start
#   gate, total order, Register/Deregister interleavings;
# - transport (race): the client's per-connection writer (what a write
#   coalesces, when Flush returns, how a write failure reaches a producer
#   blocked on credit), resync, durable sessions, the equivalence suites,
#   the run semantics and the frame fuzzer's seed corpus;
# - chaos (race): a sink panic contained by the server;
# - core and baseline (race, whole packages): one shedder shared by
#   concurrent deciders while its state is flipped must decide as a
#   single goroutine does.
stress:
	$(GO) test -race -count=5 -cpu 1,2 -run 'Backpressure|PanicMidMessage|Equivalence|ShedsUnderOverload|BacklogEvents|Sharded|Ring' ./internal/runtime
	$(GO) test -race -count=5 -cpu 1,2 -run 'SubmitBeforeRun|TotalOrder|EngineEquivalence|DeregisterUnderLiveTraffic|ConcurrentRegisterSubmit|ShardedPoolChurn' ./internal/engine
	$(GO) test -race -count=5 -cpu 1,2 -run 'Client|Coalesc|LoneBatch|Resync|Durable|Equiv|^TestRun|^FuzzServerFrame$$' ./internal/transport
	$(GO) test -race -count=5 -cpu 1,2 -run 'SinkPanic' ./internal/chaos
	$(GO) test -race -count=5 -cpu 1,2 ./internal/core ./internal/baseline

# Drive the networked ingest path end to end (in-process loopback
# server) and leave a machine-readable latency summary next to
# BENCH_results.json; CI uploads it as an artifact.
loadtest:
	$(GO) run ./cmd/espice-loadgen -selftest -events 200000 -conns 4 -rate 0 \
		-seconds 240 -json loadgen_summary.json

# Crash-recovery soak: SIGKILL a real espice-serve subprocess
# mid-stream, restart it on the same -wal directory, and audit the
# effectively-once delivery ledger — KILL_ITERS consecutive times. The
# soak skips itself under the race detector; this target runs it in a
# plain build (CI gives it a dedicated non-race step).
KILL_ITERS ?= 20
killtest:
	ESPICE_KILL_ITERS=$(KILL_ITERS) $(GO) test ./cmd/espice-serve -run '^TestServeKillResilience$$' -count=1 -v

# Chaos soak: one engine-mode durable server under simultaneous
# connection resets, a panicking query and an injected fsync failure.
# All faults are seed-driven, so the run is reproducible. Two passes:
# the full soak in a plain build, then a shortened run under the race
# detector (the fault windows are timing-sensitive, so -short keeps the
# race pass inside its budget).
chaostest:
	$(GO) test ./internal/chaos -count=1
	$(GO) test ./cmd/espice-serve -run '^TestChaosSoak$$' -count=1 -v
	$(GO) test ./cmd/espice-serve -run '^TestChaosSoak$$' -race -short -count=1

# Multi-tenant fairness soak: a compliant tenant next to a tenant
# flooding far above its quota — the compliant stream must stay
# byte-identical to its solo run, its p99 inside the regression bound,
# and the flood's overage throttled at the transport and shed by the
# engine budget. Two passes like chaostest: the full soak in a plain
# build, then a shortened run under the race detector (race overhead
# stretches the burst window, so -short keeps it inside its budget).
# -fair.latency makes the p99 bound a failure; tier-1 runs the same soak
# with every behavioural assertion but only logs the two p99s, because
# `go test ./...` shares the cores with every other package's tests.
fairtest:
	$(GO) test ./cmd/espice-serve -run '^TestTenantFairnessSoak$$' -count=1 -v -args -fair.latency
	$(GO) test ./cmd/espice-serve -run '^TestTenant' -race -short -count=1 -args -fair.latency

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Docs gate: every exported identifier of the public surface (facade +
# engine) must carry a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck

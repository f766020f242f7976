# MINOS reproduction — build / test / lint entry points.
# CI (.github/workflows/ci.yml) runs exactly these targets.

GO ?= go

.PHONY: all build test test-bench flake race lint vet check bench bench-smoke bench-live bench-node bench-obs bench-offload bench-scale clean

all: build

build:
	$(GO) build ./...

# Tier-1 gate: plain unit tests (includes the analyzer fixtures).
test:
	$(GO) test ./...

# The nested benchmark module (benchmark/go.mod replaces the parent by
# ../) imports internal/..., but `go build ./... && go test ./...` at
# the root never see it: this is what catches an internal API change
# that breaks it.
test-bench:
	$(GO) test -C benchmark ./...

# Repeats the packages whose tests race real goroutines and sockets
# (loopback TCP, ring backpressure, the node, the soft-NIC engine and
# the NVM pipeline's close/drain paths), since one green run does not
# show they are deterministic.
flake:
	$(GO) test -count=20 ./internal/transport ./internal/node ./internal/offload ./internal/nvm

# The repo's benchmark (BENCHMARK.json): four workloads over a live
# 5-node cluster, ~20 s each; builds into the git-ignored .bench_build/.
bench:
	bash benchmark/run.sh

# Race-detector pass. The simulation-heavy experiments package runs
# 10-20x slower under -race; the generous timeout is deliberate.
race:
	$(GO) test -race -timeout 45m ./...

# go vet plus the protocol/determinism analyzers (internal/lint). The
# full nine-analyzer suite runs whole-program (facts flow across
# packages) and writes a SARIF 2.1.0 log for code-scanning upload; its
# wall clock is printed to stderr (budget: well under 2 minutes).
lint: vet
	$(GO) run ./cmd/minos-lint -sarif minos-lint.sarif ./...

vet:
	$(GO) vet ./...

# The local gate, equal to what CI requires.
check: lint test test-bench

# Quick-scale sweep with the parallel runner; records per-figure wall
# clock in BENCH_sweep.json (CI uploads it as the perf trajectory).
bench-smoke:
	$(GO) run ./cmd/minos-bench -requests 400 -ablations -json BENCH_sweep.json > /dev/null

# Live cluster over loopback TCP: all five models through the batched
# wire path. Updates the "after.live" section of BENCH_live.json in
# place (the committed before/after microbenchmark numbers are kept).
bench-live:
	$(GO) run ./cmd/minos-live -nodes 3 -workers 4 -requests 400 -tcp -json BENCH_live.json

# Node write-path benchmarks: serial and parallel write
# microbenchmarks per model over both the channel fabric ("mem") and
# the shared-memory ring fabric ("ring", polled inline), plus livebench
# Lin-Synch throughput runs, with the NVM delay off and at the paper's 1295 ns. Updates the
# "after" section of BENCH_node.json in place (the committed "before"
# baseline rows — fabric-less, i.e. mem — are kept). CI uploads the
# result as the bench-node artifact.
bench-node:
	$(GO) run ./cmd/minos-benchnode -label after -json BENCH_node.json

# MINOS-B vs MINOS-O: the same livebench cells with the soft-NIC
# offload engine off ("before") and on ("after"), across both
# in-process fabrics, uniform/zipfian/hot-churn key distributions, and
# two persistency models (Lin-Synch, Lin-Strict). Writes both labels
# of BENCH_offload.json in one run. CI uploads it as bench-offload.
bench-offload:
	$(GO) run ./cmd/minos-benchoffload -requests 1500 -json BENCH_offload.json

# Open-loop scale sweep: the coordinated-omission-safe load engine
# drives 1M logical clients over 16 connections against a 5-node
# cluster, doubling the offered rate until goodput falls off the knee,
# per persistency model × fabric (ring, tcp) × offload mode. Writes
# BENCH_scale.json. Pass SCALE_FLAGS=-smoke for the short CI variant
# (one small ring cell); CI uploads the result as bench-scale.
bench-scale:
	$(GO) run ./cmd/minos-benchscale $(SCALE_FLAGS) -json BENCH_scale.json

# Observability overhead: the serial write microbenchmark with tracing
# off, sampled (1-in-8, the production default), and full, per model.
# Fails if sampled tracing costs >= 5% on the no-delay write path.
# Updates the "after" section of BENCH_obs.json in place.
bench-obs:
	$(GO) run ./cmd/minos-benchobs -label after -json BENCH_obs.json

clean:
	$(GO) clean ./...

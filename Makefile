# MINOS reproduction — build / test / lint entry points.
# CI (.github/workflows/ci.yml) runs exactly these targets.

GO ?= go

.PHONY: all build test test-bench flake race race-hot lint vet check bench bench-smoke live-smoke server-smoke examples-smoke bench-scale clean

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
# (loopback TCP, ring backpressure, the node, the record waiter lists,
# the soft-NIC engine, the NVM pipeline's close/drain paths, the
# client path the load engine drives through the nodes' delivery
# goroutines, and minos-client's runs against a loopback TCP cluster),
# since one green run does not show they are deterministic.
flake:
	$(GO) test -count=20 ./internal/transport ./internal/node ./internal/kv ./internal/offload ./internal/nvm ./internal/loadgen ./cmd/minos-client

# The repo's benchmark (BENCHMARK.json): four workloads over a live
# 5-node cluster, ~20 s each; builds into the git-ignored .bench_build/.
bench:
	bash benchmark/run.sh

# Race-detector pass. The simulation-heavy experiments package runs
# 10-20x slower under -race; the generous timeout is deliberate.
race:
	$(GO) test -race -timeout 45m ./...

# The race detector over the packages whose goroutines share the hot
# path (the NVM pipeline's worker and inline commits, the node's
# delivery goroutines, the transports, the soft-NIC engine's sampled
# cost stamps and slot moves), repeated: short enough for every CI
# run, unlike the whole-module race pass.
race-hot:
	$(GO) test -race -count=3 ./internal/nvm ./internal/node ./internal/transport ./internal/offload

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

# End-to-end check of minos-live's trace file and minos-trace reading
# it: a short traced open-loop run of every model on a 3-node cluster
# (minos-live exits 1 if any run errs or completes nothing), then the
# per-phase breakdown of that file.
live-smoke:
	@trace=$$(mktemp) && \
	$(GO) run ./cmd/minos-live -nodes 3 -rate 5000 -duration 300ms -trace $$trace && \
	$(GO) run ./cmd/minos-trace $$trace; \
	status=$$?; rm -f $$trace; exit $$status

# End-to-end check of the process-per-node deployment: three
# minos-server processes on 127.0.0.1:17100-17102, then minos-client
# set, get (on another node), persist, stats and a short open-loop
# bench, which exits 1 if any operation errs. The servers are stopped
# by PID; their logs are printed if anything failed.
server-smoke:
	@dir=$$(mktemp -d); status=0; pids=; \
	spec=0=127.0.0.1:17100,1=127.0.0.1:17101,2=127.0.0.1:17102; \
	$(GO) build -o $$dir/ ./cmd/minos-server ./cmd/minos-client || status=1; \
	if [ $$status = 0 ]; then \
	  for i in 0 1 2; do $$dir/minos-server -id $$i -cluster $$spec 2>$$dir/node$$i.log & pids="$$pids $$!"; done; \
	  for i in 0 1 2; do n=0; until grep -q ' up:' $$dir/node$$i.log || [ $$n -ge 50 ]; do sleep 0.1; n=$$((n+1)); done; done; \
	  c=$$dir/minos-client; \
	  { $$c -cluster $$spec set 42 hello && \
	    test "$$($$c -cluster 2=127.0.0.1:17102 get 42)" = "OK hello" && \
	    $$c -cluster $$spec persist && \
	    $$c -cluster $$spec stats | grep -q '"name":"node.client_served","value":[1-9]' && \
	    $$c -cluster $$spec bench -duration 300ms; } || status=1; \
	  kill $$pids; wait; \
	  [ $$status = 0 ] || cat $$dir/node*.log; \
	fi; \
	rm -rf $$dir; exit $$status

# Runs the examples built on the in-process API (node sessions):
# quickstart, resilience and scope, each of which exits non-zero when
# what it shows does not hold. socialnetwork (~95 s) and ycsb (~14 s)
# are too slow for a smoke step.
examples-smoke:
	@dir=$$(mktemp -d); status=0; \
	$(GO) build -o $$dir/ ./examples/quickstart ./examples/resilience ./examples/scope || status=1; \
	for ex in quickstart resilience scope; do \
	  [ $$status = 0 ] || break; \
	  echo "== examples/$$ex"; $$dir/$$ex || status=1; \
	done; \
	rm -rf $$dir; exit $$status

# Open-loop scale sweep: the coordinated-omission-safe load engine
# drives 1M logical clients over 16 connections against a 5-node
# cluster, doubling the offered rate until goodput falls off the knee,
# per persistency model × fabric (ring, tcp) × offload mode. Writes
# BENCH_scale.json. Pass SCALE_FLAGS=-smoke for the short CI variant
# (one small ring cell); CI uploads the result as bench-scale.
bench-scale:
	$(GO) run ./cmd/minos-benchscale $(SCALE_FLAGS) -json BENCH_scale.json

clean:
	$(GO) clean ./...

GO ?= go

.PHONY: all build vet test test-short race race-repeat cover staticcheck serve-smoke loadgen-smoke explain-smoke chaos-smoke cluster-smoke failover-smoke fast-smoke experiments-check fuzz-smoke ci clean

all: build

build:
	$(GO) build ./...

# vet also fails when any Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# can't hide; a failure prints the seed to reproduce.
race:
	$(GO) test -race -shuffle=on ./...

# race-repeat reruns the concurrent packages RACE_COUNT times under the
# race detector with shuffled order, so an interleaving that a single
# run hits only now and then is caught on most pushes, not a few. sweep
# and figures hold the plan executor's and RunContext's worker pools.
RACE_COUNT ?= 5
race-repeat:
	$(GO) test -race -shuffle=on -count=$(RACE_COUNT) ./internal/cluster/... ./internal/service/... ./internal/sweep/... ./internal/figures/...

# cover writes coverage.out and prints the per-package totals; the CI
# coverage job runs this and logs the per-function breakdown.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# staticcheck expects the binary on PATH (CI installs a pinned version).
staticcheck:
	staticcheck ./...

# serve-smoke boots cmd/served on an ephemeral port and drives the HTTP
# API end to end with curl, asserting the Pareto staircase and the
# result-store hit on resubmission. Requires curl and jq.
serve-smoke:
	bash scripts/serve_smoke.sh

# loadgen-smoke closes the serving-observatory loop: boots cmd/served
# with the durable store and hot LRU tier, replays a deterministic
# mixed workload with cmd/loadgen, and asserts the twolevel-loadgen/1
# report passes its SLOs with hot-tier hits and SSE-derived timings.
loadgen-smoke:
	bash scripts/loadgen_smoke.sh

# chaos-smoke proves crash safety and admission control from outside
# the process: kill -9 + restart with byte-identical results served
# from the durable store, 429 shedding, the /readyz drain flip, and the
# nonzero exit on an expired drain deadline. Requires curl and jq.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# cluster-smoke proves the distributed sweep cluster from outside the
# processes: a coordinator plus two worker processes run a sweep, one
# worker is killed -9 mid-job, and the final result document must be
# byte-identical to a standalone run with zero lost and zero
# double-counted evaluations. Requires curl and jq.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# failover-smoke proves coordinator crash-tolerance from outside the
# processes: a journaled coordinator plus two workers run a sweep, the
# COORDINATOR is killed -9 mid-job and restarted against the same
# journal and store directories, and the final result document must be
# byte-identical to a standalone run with zero lost and zero
# re-evaluated points and at least one orphaned lease reconciled.
# Requires curl and jq.
failover-smoke:
	bash scripts/failover_smoke.sh

# fast-smoke gates the analytical fast tier: cmd/sweep -accuracy runs
# both tiers over all seven workloads at the default trace length and
# the twolevel-model-accuracy/1 document must show mean |TPI error|
# <= 5% and envelope winner agreement >= 90%, checked at full precision
# from the JSON (the table rounds). Requires jq.
fast-smoke:
	bash scripts/fast_smoke.sh

# explain-smoke drives the cache-explainability pipeline: cachesim
# -explain-json 3C sum contract plus cmd/explain's conflict-share
# collapse under exclusive 4-way L2. Requires jq.
explain-smoke:
	bash scripts/explain_smoke.sh

# experiments-check enforces the byte-identity gate on the reproduction:
# EXPERIMENTS.md regenerated by cmd/experiments at the default 2M
# references must equal the checked-in copy byte for byte.
experiments-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments > "$$tmp" && \
	cmp "$$tmp" EXPERIMENTS.md && echo "experiments-check: EXPERIMENTS.md regenerates byte-identical"

# fuzz-smoke runs every native fuzz target in the module (the trace
# decoders, the internal/wal log decoder, the L1-filter differential
# oracle and the plan executor's) for FUZZTIME each, so inputs the seed corpora miss still get a
# bounded search on every push.
FUZZTIME ?= 15s
fuzz-smoke:
	@set -e; $(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { fn[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, fn[i]; n = 0 }' | \
	while read -r pkg fn; do \
		echo "fuzz-smoke: $$pkg $$fn"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME); \
	done

# ci is what .github/workflows/ci.yml's test job runs; staticcheck and
# cover run as separate jobs.
ci: vet build race

clean:
	$(GO) clean ./...

# Development entry points. `make ci` is what .github/workflows/ci.yml runs.

GO ?= go

.PHONY: ci verify vet build test race allocs fuzz-wire smoke-obsplane smoke-tenancy examples bench bench-smoke perf perf-compare perf-pairs clean

ci: vet build bench-smoke race allocs fuzz-wire smoke-obsplane smoke-tenancy examples

# One-stop pre-commit check: static analysis, full build, race-checked tests,
# alloc budgets.
verify: vet build bench-smoke race allocs

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test under the race detector, then a -count=2 pass over the leaf
# packages whose property tests race many goroutines on lock-cheap state (a
# data race there corrupts results silently and one run may not hit it):
# flight recorder and SLO engine, telemetry primitives and snapshot merge,
# journal and watchdog, erasure codec, heat sketch and autoscale controller,
# token buckets and stride scheduler, wire codec, the TCP transport's
# connection mux, the coord lock table, the spawn worker pool, and the
# replication outbox. The integration paths around them are in the first
# pass; a -run regex here would be a subset of it that rots as tests are
# renamed.
RACE_LEAVES = ./internal/flight/ ./internal/telemetry/ ./internal/watch/ ./internal/ec/ \
	./internal/autoscale/ ./internal/tenant/ ./internal/wire/ ./internal/transport/ ./internal/coord/ \
	./internal/spawn/ ./internal/repair/
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 $(RACE_LEAVES)

# The alloc-budget tests count every allocation in the process, so they run
# without -race, and three times: work an earlier run leaves behind is
# counted against the next one's ops.
allocs:
	$(GO) test -count=3 -run AllocBudget ./internal/wiera/ ./internal/transport/ ./internal/ring/

# End-to-end observability smoke: boots a 2-worker daemon, drives traffic,
# and asserts /healthz answers, /cluster/metrics carries a resolvable
# exemplar, and grow/shrink ring epochs land in the event journal in order.
smoke-obsplane:
	./scripts/smoke_obsplane.sh

# Fuzz smoke over the wire decoder and the TCP frame decoders: truncated/
# corrupt/mutated frames and status details must error (never panic) and
# accepted ones must re-encode byte-exact.
fuzz-wire:
	$(GO) test -fuzz=FuzzWireRoundTrip -fuzztime=10s -run FuzzWireRoundTrip ./internal/wiera/
	$(GO) test -fuzz=FuzzTCPFrame -fuzztime=10s -run FuzzTCPFrame ./internal/transport/

# The benchmark (bench/) is a module of its own that builds against this
# one, so `go vet ./...` and `go test ./...` here never compile it: this is
# the gate that stops an API change from breaking the benchmark build.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The repository benchmark (BENCHMARK.json): four workloads untraced, then
# their traced per-layer ladders; results land in .bench_build/results.
perf:
	bash bench/run.sh --seed 1 --seconds 15

# Compare two result directories under the BENCHMARK.json bounds:
#   make perf-compare A=/path/to/parent/results B=.bench_build/results
perf-compare:
	bash bench/run.sh compare $(A) $(B)

# Paired runs of a parent revision against this checkout for one workload,
# alternating which side goes first, folded into BENCH_<pr>.json (one entry
# per workload; run once per workload). PR defaults to ISSUE.md's number.
#   make perf-pairs PARENT=HEAD~1 W=fabric_small_rw N=10
PR ?= $(shell sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md)
N ?= 10
perf-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(W) $(N) BENCH_$(PR).json

# Remove what building and running the benchmark leave behind.
clean:
	rm -rf .bench_build/

# Every program under examples/ runs to completion: each must exit 0 within
# 60 s (they take a few seconds each). `go build` alone only compiles them.
EXAMPLES = coldtiering dynamicconsistency modularinstances quickstart remotetier
examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		timeout 60 $(GO) run ./examples/$$ex || { echo "examples/$$ex failed"; exit 1; }; \
	done

# End-to-end tenancy smoke: boots a daemon, starts a two-tenant instance,
# and asserts disjoint keyspaces, fail-fast quota NACKs, tenant_* metrics,
# the wieractl tenants view, and the /healthz tenant count.
smoke-tenancy:
	./scripts/smoke_tenancy.sh

# Telemetry overhead: instrumented vs bare client PUT/GET; then the TCP
# transport's serial round trip against its floor, a raw loopback ping-pong
# of the same frames, on one P as the benchmark's two processes share a core.
bench:
	$(GO) test -bench=BenchmarkClient -benchmem ./internal/wiera/
	$(GO) test -run '^$$' -bench 'TCPRoundTrip|LoopbackPingPong' -cpu 1 -benchmem ./internal/transport/

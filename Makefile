# Local targets mirror the workflows exactly: `make ci` runs every gate
# the push/PR workflow (.github/workflows/ci.yml) enforces — including
# the bench-smoke/bench-gate job via `ci-bench` — and `make nightly`
# runs the scheduled slow-path gates of nightly.yml (full non-short
# suite, hyperscale benchmark, manifest determinism check, fuzz smoke).

GO ?= go

.PHONY: build perfbench-build test test-short test-race-subsys cover-check bench bench-quick bench-gate \
	bench-baseline bench-hyperscale manifest-check manifest-diff fuzz-smoke vet fmt-check ci ci-bench nightly loc

build:
	$(GO) build ./...

# The benchmark harness is its own module (perfbench/go.mod, replacing
# dilu with ../), so `go build ./...` never compiles it. Build and vet it
# here so a change to an API it reads fails the check gate, not only the
# benchmark run. perfbench is a single main package, so a plain build
# would write its binary into perfbench/; -o /dev/null discards it.
perfbench-build:
	$(GO) build -C perfbench -o /dev/null ./...
	$(GO) vet -C perfbench ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detected pass over the invariant checkers, the workload
# subsystem (trace parsing, generators), the cluster index property
# tests, and the event-engine order properties — fast enough for the
# check gate, where the full -race suite is not.
test-race-subsys:
	$(GO) test -race ./internal/sim/... ./internal/simtest/... ./internal/workload/... ./internal/cluster/...

# Coverage floor over the library packages: the short tier with a
# profile, gated against the committed floor in bench/coverage-floor.txt.
# The floor is a ratchet, not a target — raise it when coverage rises,
# never lower it to make a PR pass. Uses only go tool cover + awk so the
# gate runs on the bare CI image.
COVER_OUT ?= /tmp/dilu-cover.out
cover-check:
	$(GO) test -short -coverprofile $(COVER_OUT) ./internal/...
	@total=$$($(GO) tool cover -func $(COVER_OUT) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat bench/coverage-floor.txt); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the committed floor $$floor%"; exit 1; }

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# One-iteration sweep of the suite benchmarks with allocation counts, in
# benchstat-comparable form (-short keeps the hyperscale sizes out; run
# `make bench` for the full sweep). Compare against the committed
# baseline with
#   make bench-quick > /tmp/new.txt && benchstat bench/baseline.txt /tmp/new.txt
# (single-iteration numbers are noisy; treat benchstat deltas under ~20%
# as noise and re-run with -count before acting on them).
bench-quick:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -benchmem .

# Pinned-benchmark regression gate: re-run the pinned benchmarks (best
# of -count 3 as the noise floor) and fail on >10% ns/op regression
# against bench/baseline.txt. cmd/bench-gate is the dependency-free
# benchstat stand-in. The -bench regex is derived from
# PINNED_BENCHMARKS so the run set and the gated set cannot drift.
# Recipes avoid `test | tee` because the default shell has no pipefail —
# a crashing benchmark must fail the target even mid-log.
PINNED_BENCHMARKS = BenchmarkSchedulerThroughput BenchmarkFigure17_LargeScale BenchmarkSuiteQuickSerial BenchmarkGatewaySubmit BenchmarkGrayFailure BenchmarkColdStartStages BenchmarkLLMContinuousBatch BenchmarkHyperscalePlacement
empty :=
space := $(empty) $(empty)
PINNED_BENCH_RE = ^($(subst $(space),|,$(strip $(PINNED_BENCHMARKS))))$$
BENCH_GATE_OUT ?= /tmp/dilu-bench-gate.txt
bench-gate:
	$(GO) test -run '^$$' -bench '$(PINNED_BENCH_RE)' -benchtime 1x -count 3 -benchmem . \
		> $(BENCH_GATE_OUT) || { cat $(BENCH_GATE_OUT); exit 1; }
	@cat $(BENCH_GATE_OUT)
	$(GO) run ./cmd/bench-gate -baseline bench/baseline.txt -new $(BENCH_GATE_OUT) -max-regress 0.10 $(PINNED_BENCHMARKS)

# Refresh the committed baseline after an intentional perf change: the
# full -short sweep for benchstat visibility, plus -count 3 of the
# pinned benchmarks so the gate's best-of-3 comparison is symmetric
# (bench-gate takes the per-name minimum across the whole file — a
# single unlucky baseline sample would otherwise inflate the tolerated
# regression by the run-to-run noise margin).
bench-baseline:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -benchmem . > bench/baseline.txt
	$(GO) test -run '^$$' -bench '$(PINNED_BENCH_RE)' -benchtime 1x -count 3 -benchmem . >> bench/baseline.txt

# Hyperscale placement benchmarks (up to 40k GPUs / 32k instances): too
# heavy for the per-PR bench smoke (-short keeps them out), pinned
# nightly so the sub-linear placement claim stays guarded by automation.
BENCH_NIGHTLY_OUT ?= /tmp/dilu-bench-nightly.txt
bench-hyperscale:
	$(GO) test -run '^$$' -bench '^(BenchmarkPlacementClusterSize|BenchmarkHyperscalePlacement)$$' -benchtime 1x -benchmem . \
		> $(BENCH_NIGHTLY_OUT) || { cat $(BENCH_NIGHTLY_OUT); exit 1; }
	@cat $(BENCH_NIGHTLY_OUT)

# Full-registry manifest determinism check: every driver (slow tier
# included) runs serially and on all cores at the golden scale; the
# manifests must be byte-identical. This is the whole-registry extension
# of the committed quick/trace golden tests. The token-level drivers
# then get their own dedicated pass: continuous batching joins/preempts
# mid-stream and KV charge/release races would show up exactly here, so
# they are byte-compared in isolation too.
LLM_DRIVERS = llm_continuous_batch llm_kvcache_pressure
MANIFEST_DIR ?= /tmp
manifest-check:
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 1 -q -manifest $(MANIFEST_DIR)/dilu-manifest-serial.json
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 0 -q -manifest $(MANIFEST_DIR)/dilu-manifest-parallel.json
	cmp $(MANIFEST_DIR)/dilu-manifest-serial.json $(MANIFEST_DIR)/dilu-manifest-parallel.json
	@echo "manifest determinism: serial == parallel"
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 1 -q -manifest $(MANIFEST_DIR)/dilu-manifest-llm-serial.json $(LLM_DRIVERS)
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 0 -q -manifest $(MANIFEST_DIR)/dilu-manifest-llm-parallel.json $(LLM_DRIVERS)
	cmp $(MANIFEST_DIR)/dilu-manifest-llm-serial.json $(MANIFEST_DIR)/dilu-manifest-llm-parallel.json
	@echo "LLM driver determinism: serial == parallel"

# Manifest diff against HEAD: dilu-bench is built from HEAD (checked out
# in a temporary git worktree) and from the working tree, each runs the
# full registry serially at the golden scale, and the two manifests
# must be byte-identical. The worktree and binaries are removed on exit,
# pass or fail. A local check for changes that must keep every record,
# not a CI gate: a correctness change may re-pin records on purpose.
manifest-diff:
	@tmp=$$(mktemp -d) && \
	trap 'git worktree remove --force "$$tmp/head" 2>/dev/null; rm -rf "$$tmp"; git worktree prune' EXIT && \
	git worktree add --detach -q "$$tmp/head" HEAD && \
	$(GO) build -C "$$tmp/head" -o "$$tmp/dilu-bench-head" ./cmd/dilu-bench && \
	$(GO) build -o "$$tmp/dilu-bench-work" ./cmd/dilu-bench && \
	"$$tmp/dilu-bench-head" -scale 0.1 -parallel 1 -q -manifest "$$tmp/head.json" > /dev/null && \
	"$$tmp/dilu-bench-work" -scale 0.1 -parallel 1 -q -manifest "$$tmp/work.json" > /dev/null && \
	cmp "$$tmp/head.json" "$$tmp/work.json" && \
	echo "manifest diff: working tree == HEAD"

# Fuzz smoke: each fuzz target for 10 s (go test accepts one -fuzz
# target per package per invocation, hence one line per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceCSV$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceJSON$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseChurnCSV$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultCSV$$' -fuzztime 10s ./internal/workload

vet:
	$(GO) vet ./...

# Non-test Go line count, the benchmark module and its build directory
# excluded: the size figure a change that removes code reports before
# and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' | xargs cat | wc -l

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci-bench is the local mirror of the workflow's bench-smoke job: the
# one-iteration suite sweep, then the pinned-benchmark gate.
ci-bench: bench-quick bench-gate

ci: build perfbench-build vet fmt-check test-short test-race-subsys cover-check ci-bench

# nightly mirrors .github/workflows/nightly.yml: the slow path the
# per-PR workflow skips.
nightly: test bench-hyperscale manifest-check fuzz-smoke

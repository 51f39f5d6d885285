# Developer entry points. `make check` is the CI gate (run on every
# push/PR by .github/workflows/ci.yml): everything it runs must stay
# green, from gofmt cleanliness to the race detector over every package
# that spawns or drives goroutines, so a local green `make check` is a
# green CI check job.

GO ?= go

.PHONY: check vet build test race examples benchmodule quick bench hotpath benchgate fmtcheck doccheck fuzzsmoke paperscale

check: fmtcheck doccheck vet build test race examples benchmodule quick

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Build-only gate for every example program (vet+build already cover
# them via ./..., but an explicit target keeps them from silently
# dropping out of the gate if the build patterns ever narrow).
examples:
	$(GO) build ./examples/...

# benchmark/ is its own Go module (it imports the simulator through a
# replace of the parent), so the root ./... patterns never compile it;
# vet and self-test it here so API changes it depends on cannot break it
# silently.
benchmodule:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Runs every spbench experiment once at quick scale (the goldens pin only
# some of them): a sweep that panics, or one that relapses to minutes,
# shows here.
quick:
	$(GO) run ./cmd/spbench -quick > /dev/null

# Every package that spawns goroutines or drives goroutine-spawning code
# runs under the race detector: the worker pool itself (par), the
# scratchpad control plane and pipeline (core), the sharded planner with
# its shard-parallel Plan pass (shard), the engines' per-table fan-outs
# (engine), the trace loader (trace), the harness that drives them all
# (bench), and the public facade (scratchpipe). The failure-path tests
# ride along too: hw (fault plans mutating live topologies) and
# checkpoint (restore staging), plus the shard evacuation and engine
# fault-orchestration tests already inside the shard/engine runs. The
# serving fleet (serve) drives the sharded planner per replica and
# inherits its fan-out machinery. The message plane (msgplane) is left
# out: it is sequential code (a max-plus recurrence, no goroutines or
# channels, which its TestSequentialSource enforces), and the shard run
# already drives it. Any hold-discipline, shard-partition, or fan-out
# bug must surface as a race here.
race:
	$(GO) test -race ./internal/par/ ./internal/core/ ./internal/shard/ \
		./internal/engine/ ./internal/trace/ ./internal/bench/ \
		./internal/hw/ ./internal/checkpoint/ ./internal/serve/ \
		./scratchpipe/

# Short fuzzing pass over every flag-grammar parser (the checked-in
# corpora under */testdata/fuzz/ run as plain tests in `make test`;
# this target actually mutates). Each target asserts no-panic and the
# canonical parse/print fixpoint the benchmark baselines match on.
# FUZZTIME scales the budget (CI smoke keeps it short).
FUZZTIME ?= 10s
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseFaultPlan -fuzztime=$(FUZZTIME) ./internal/hw/
	$(GO) test -run='^$$' -fuzz=FuzzParseArrival -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzParseBatch -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzParseReshardSpec -fuzztime=$(FUZZTIME) ./internal/engine/

# Fails on dangling intra-repo documentation references: any *.md that
# names a file, directory, or package path that no longer exists (see
# cmd/doccheck). Keeps DESIGN.md/EXPERIMENTS.md/README.md honest as the
# tree moves.
doccheck:
	$(GO) run ./cmd/doccheck

# Fails if any file is not gofmt-clean (`make check` runs it first,
# then doccheck, so both cheap checks fail early and by name).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Paper-scale pin: runs Figure 13 at the paper's table and batch sizes
# (10M rows, batch 2048; under a minute, 1.4 GB of RSS) and fails on
# any byte that differs from the recorded output. CI runs it as its own
# job after `check`; it is not part of `make check` or `go test`.
paperscale:
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/spbench -experiment fig13 > "$$out" && \
	diff -u cmd/spbench/testdata/paper_fig13.golden "$$out"

bench:
	$(GO) test -run='^$$' -bench=Figure13 -benchmem .

hotpath:
	$(GO) run ./cmd/spbench -quick -json BENCH_hotpath.json

# Benchmark-regression smoke gate: re-runs the quick hot-path sweep and
# fails if wall time or allocations regress beyond the thresholds against
# the last committed BENCH_hotpath.json baseline entry (>25% by default;
# override flags via BENCHGATE_FLAGS — CI loosens the wall factor because
# its runners are not the machine that recorded the baseline, while the
# allocation gate is machine-independent and stays tight).
benchgate:
	$(GO) run ./cmd/benchgate -baseline BENCH_hotpath.json $(BENCHGATE_FLAGS)

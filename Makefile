# Developer entry points. `make check` is the CI gate (run on every
# push/PR by .github/workflows/ci.yml): everything it runs must stay
# green, including the race detector over every package that spawns or
# drives goroutines.

GO ?= go

.PHONY: check vet build test race examples benchmodule bench hotpath benchgate fmtcheck doccheck fuzzsmoke

check: vet build test race examples benchmodule doccheck

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
# inherits its fan-out machinery. The message plane (msgplane) runs
# every host as a goroutine and the overlapped-coordination path races
# a speculation goroutine against the pipeline, so both ride along. Any
# hold-discipline, shard-partition, or fan-out bug must surface as a
# race here.
race:
	$(GO) test -race ./internal/par/ ./internal/core/ ./internal/shard/ \
		./internal/engine/ ./internal/trace/ ./internal/bench/ \
		./internal/hw/ ./internal/checkpoint/ ./internal/serve/ \
		./internal/msgplane/ ./scratchpipe/

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

# Fails if any file is not gofmt-clean (CI runs this before make check).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

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

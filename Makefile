GO ?= go

.PHONY: check vet build test test-race test-cancel-race fuzz-smoke bench-smoke bench bench-compare bench-all ab loc smoke-lowmem smoke-chaos smoke-dist clean

# check is the CI gate: vet, build, tests, benchmark smoke.
check: vet build test bench-smoke

# vet is go vet plus a gofmt check over every source file.
vet:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race runs the full suite under the race detector — the CI job
# that guards the typed engine's worker-goroutine and pooled-scratch
# concurrency.
test-race:
	$(GO) test -race ./...

# test-cancel-race runs the cancellation tests under the race detector
# as a fast, named gate: the cancel fires from inside concurrently
# executing tasks, exactly where a racy context check would show up.
# go test -run exits 0 when nothing matches, so the gate first requires
# a match in every package it names.
CANCEL_PKGS = ./internal/mapreduce ./internal/er
test-cancel-race:
	@for p in $(CANCEL_PKGS); do \
		$(GO) test -list Cancel $$p | grep -q '^Test' || \
			{ echo "test-cancel-race: no test matches Cancel in $$p (renamed or deleted?)"; exit 1; }; \
	done
	$(GO) test -race -run Cancel $(CANCEL_PKGS)

# fuzz-smoke gives every native fuzz target two seconds of the mutating
# engine (go test alone only replays their seed corpora), about a minute
# in all. FUZZ_TARGETS is how many the repo has: the gate fails when it
# finds fewer, so a renamed or deleted target cannot pass unseen.
FUZZ_TARGETS = 22
fuzz-smoke:
	scripts/fuzz_smoke.sh $(FUZZ_TARGETS)

# bench-smoke builds and runs every benchmark in the repo exactly once,
# so bench files cannot silently rot, without paying for a full
# measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# bench is the repo's one yardstick (benchmark/README.md): all seven
# workloads end to end through ermatch, then the per-layer traced runs;
# results land in .bench_build/out/result.json.
bench:
	$(GO) run ./benchmark -seed 1

# bench-compare judges result file B (the change) against A (the
# parent) by the bounds in BENCHMARK.json:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# ab runs the claim protocol: PAIRS alternating pairs of the named
# workloads on BASE and on this tree, each frozen into a temporary
# directory, then per metric each side's median and quartiles, the
# pairs won and the verdict (scripts/abpairs.sh):
#   make ab BASE=origin/main W="flat-spill flat-mem" PAIRS=10 SEED=7 SECONDS=15
PAIRS ?= 10
SEED ?= 1
SECONDS ?= 15
ab:
	scripts/abpairs.sh "$(BASE)" "$(W)" $(PAIRS) $(SEED) $(SECONDS)

# bench-all runs the full figure + micro benchmark suite (slow).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# loc prints non-blank, non-comment, non-test Go lines per package —
# the figure a simplicity PR reports its line delta in. With BASE=<rev>
# it prints that revision's count, this tree's, and the delta:
#   make loc BASE=origin/main
loc:
	scripts/loc.sh $(BASE)

clean:
	$(GO) clean ./...

# smoke-lowmem runs ermatch out-of-core on the full-size DS1 stand-in,
# once per strategy, with GOMEMLIMIT far below the shuffle volume,
# asserting success, real spilling, spill cleanup and output equal to
# an in-memory run's.
smoke-lowmem:
	scripts/lowmem_smoke.sh

# smoke-chaos runs the fault-injection differential suites and the
# mid-phase cancellation tests under -race with a randomized chaos
# seed (echoed for reproduction; pin with CHAOS_SEED=N).
smoke-chaos:
	scripts/chaos_smoke.sh

# smoke-dist runs the match pipeline across real worker processes
# (master + 3 erworkers over HTTP), SIGKILLs one worker mid-reduce,
# and asserts the output is a local run's, line for line once sorted,
# and that gracefully stopped workers leave empty run directories. The
# same run polls the live /status and /debug/vars endpoints and
# validates the exported traces (chrome trace_event with per-worker
# swimlanes; worker-side ndjson) via scripts/tracecheck.
smoke-dist:
	scripts/dist_smoke.sh

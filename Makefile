GO ?= go

.PHONY: check vet build test test-race test-cancel-race fuzz-smoke bench-smoke bench bench-compare bench-all loc smoke-lowmem smoke-chaos smoke-dist smoke-obs clean

# check is the CI gate: static analysis, build, tests, benchmark smoke.
check: vet build test bench-smoke

# vet gates on three layers: stock go vet, erlint (the repo's
# invariant analyzers — internal/analysis, DESIGN.md "Static
# analysis"), and gofmt-clean sources (fixtures under testdata
# included). erlint is built once and driven through go vet's
# -vettool protocol, so per-package results are cached by the go
# build cache like any other vet check; -list prints each analyzer's
# invariant with live finding/suppression counts.
vet:
	$(GO) vet ./...
	@mkdir -p bin
	$(GO) build -o bin/erlint ./cmd/erlint
	$(GO) vet -vettool=bin/erlint ./...
	bin/erlint -list
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
FUZZ_TARGETS = 21
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

# smoke-lowmem executes the Figure 9 jobs out-of-core with GOMEMLIMIT
# far below the shuffle volume, asserting success and spill cleanup.
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
# and that gracefully stopped workers leave empty run directories.
smoke-dist:
	scripts/dist_smoke.sh

# smoke-obs runs the distributed comparison with tracing and the
# introspection server on, polls /status and /debug/vars live, and
# validates the exported traces (chrome trace_event with per-worker
# swimlanes; worker-side ndjson) via scripts/tracecheck.
smoke-obs:
	scripts/obs_smoke.sh

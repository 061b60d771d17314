package er_test

// The pipeline table: the full two-job workflow, run by the pipeline's
// entry points. A row is an input in one shape (one source, two, or
// one with a ⊥ row of keyless entities), a strategy, a residency, a
// fault schedule and a matcher form. Every row's Result, execution
// history zeroed, equals the fault-free in-memory run of its input and
// strategy with match.EditDistance's native block (P1), and its matches
// and comparisons are the serial oracle's (P3). Each named test is a
// selection of rows: the fault schedules run with the native block
// only, the matcher forms fault-free. The chaos seed is a flag so the
// CI chaos-smoke job can randomize it and a failure reproduces from the
// printed seed alone:
//
//	go test -run TestERChaosDifferential -chaos-seed=12345 ./internal/er/

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/similarity"
	"repro/internal/testleak"
)

var chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the chaos-hook pipeline differential test")

// residencies are where the intermediate records of a row's jobs live.
// (Distributed runs have their own suite, dist_differential_test.go.)
// The labels are older than the one dataflow ("typed" ran in memory,
// "external" spilled) and stay, so that test names do not change under
// the CI gates that select by them.
var residencies = map[string]bool{"typed": false, "external": true}

// pipelineInput is one input of the table in one shape.
type pipelineInput struct {
	name     string // labels the input in test names and failures
	parts    entity.Partitions
	mR       int  // two sources: the first mR partitions hold R, the rest S
	bottom   bool // key leaves some entities keyless: a ⊥ row
	key      blocking.KeyFunc
	th       float64 // the matcher's threshold
	r        int
	combiner bool // Job 1 aggregates per map task
}

// strategies are the strategies of in's shape: Basic matches one
// source without a ⊥ row only.
func (in pipelineInput) strategies() []core.Strategy {
	if in.mR > 0 || in.bottom {
		return []core.Strategy{core.BlockSplit{}, core.PairRange{}}
	}
	return []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
}

// serialOracle is the table's one P3 reference, the serial matcher of
// in's shape: er.SerialMatchDual over R and S, er.SerialMatch over one
// source and, with a ⊥ row, er.SerialMatch over the keyed entities plus
// every pair with a keyless side.
func serialOracle(in pipelineInput, match core.PairFunc) ([]core.MatchPair, int64) {
	if in.mR > 0 {
		return er.SerialMatchDual(slices.Concat(in.parts[:in.mR]...), slices.Concat(in.parts[in.mR:]...), "title", in.key, match)
	}
	if !in.bottom {
		return er.SerialMatch(slices.Concat(in.parts...), "title", in.key, match)
	}
	var keyed, keyless []entity.Entity
	for _, e := range slices.Concat(in.parts...) {
		if in.key(e.Attr("title")) == "" {
			keyless = append(keyless, e)
		} else {
			keyed = append(keyed, e)
		}
	}
	pairs, comps := er.SerialMatch(keyed, "title", in.key, match)
	for i, a := range keyless {
		for _, b := range slices.Concat(keyless[i+1:], keyed) {
			comps++
			if _, ok := match(a.Attr("title"), b.Attr("title")); ok {
				pairs = append(pairs, core.NewMatchPair(a.ID, b.ID))
			}
		}
	}
	er.SortMatches(pairs)
	return pairs, comps
}

// erFault is one fault schedule of the table. install sets the fault
// hook and/or retry policy of a row's strategy; extOnly
// restricts disk faults to the runs that reach disk points; mayMiss
// marks a random schedule that need not fail any attempt of a small
// run; inBDM marks a schedule that fails Job 1's attempts only.
type erFault struct {
	name    string
	extOnly bool
	mayMiss bool
	inBDM   bool
	install func(o *er.RunOptions, strat core.Strategy)
}

// failFirstAt fails attempt 1 of every task of the given phase at the
// given point — FaultEmit faults panic through the user map/reduce
// frames (the injected-panic carrier), making "map-panic"/"reduce-panic"
// literal descriptions of the unwinding path.
func failFirstAt(phase mapreduce.TaskKind, point mapreduce.FaultPoint) func(*er.RunOptions, core.Strategy) {
	return func(e *er.RunOptions, _ core.Strategy) {
		e.Retry.BaseBackoff = 1
		e.FaultHook = func(ctx context.Context, ph mapreduce.TaskKind, task, attempt int, pt mapreduce.FaultPoint) error {
			if ph == phase && pt == point && attempt == 1 {
				return fmt.Errorf("injected %s fault (%s task %d)", pt, ph, task)
			}
			return nil
		}
	}
}

// straggler stalls attempt 1 of map task 0 of one job until the 200 ms
// TaskTimeout: the match job, or Job 1 when inBDM is set. 200 ms is far
// past any stall-free attempt on these inputs, -race included, so only
// the straggler times out, and the retry is the only way the task
// finishes. A strategy that needs the BDM runs Job 1 first, so the
// match job's task 0 is the second one to start a first attempt.
func straggler(inBDM bool) erFault {
	name := "straggler-timeout"
	if inBDM {
		name += "-bdm"
	}
	return erFault{name: name, inBDM: inBDM, install: func(e *er.RunOptions, strat core.Strategy) {
		target := int32(1)
		if strat.NeedsBDM() && !inBDM {
			target = 2
		}
		var started atomic.Int32
		e.Retry = mapreduce.RetryPolicy{BaseBackoff: 1, TaskTimeout: 200 * time.Millisecond}
		e.FaultHook = func(ctx context.Context, ph mapreduce.TaskKind, task, attempt int, pt mapreduce.FaultPoint) error {
			if ph == mapreduce.MapTask && task == 0 && attempt == 1 && pt == mapreduce.FaultTaskStart && started.Add(1) == target {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}
	}}
}

func erFaults() []erFault {
	return []erFault{
		{name: "map-panic", install: failFirstAt(mapreduce.MapTask, mapreduce.FaultEmit)},
		{name: "reduce-panic", install: failFirstAt(mapreduce.ReduceTask, mapreduce.FaultEmit)},
		{name: "spill-transient", extOnly: true, install: failFirstAt(mapreduce.MapTask, mapreduce.FaultSpill)},
		straggler(false),
	}
}

// chaosFault is the seeded random schedule: every hook point of every
// attempt may fail, final attempts excepted.
func chaosFault(seed uint64) erFault {
	return erFault{name: fmt.Sprintf("chaos-seed=%d", seed), mayMiss: true, install: func(e *er.RunOptions, _ core.Strategy) {
		e.Retry.BaseBackoff = 1
		e.FaultHook = mapreduce.ChaosHook(seed, 0.3, 0)
	}}
}

// pipelineRow is one row of the table. The zero fault is the
// fault-free schedule.
type pipelineRow struct {
	in       pipelineInput
	strat    core.Strategy
	spilling bool
	fault    erFault
	pairFunc bool // a core.PairFunc over the rune DP, not match.EditDistance's native block
}

// zeroHistory strips the execution-history counters from an er.Result
// in place: the two attempt counters plus the external-only spill
// counters of both jobs.
func zeroHistory(res *er.Result) {
	clear := func(m *mapreduce.Metrics) {
		m.Attempts, m.Retries = 0, 0
		for _, ms := range [][]mapreduce.TaskMetrics{m.MapMetrics, m.ReduceMetrics} {
			for i := range ms {
				ms[i].SpillRuns, ms[i].SpillBytesWritten, ms[i].SpillBytesRead = 0, 0, 0
			}
		}
	}
	if res.BDMResult != nil {
		clear(&res.BDMResult.Metrics)
	}
	if res.MatchResult != nil {
		clear(&res.MatchResult.Metrics)
	}
}

// run runs rw's pipeline through the entry point of its shape.
func (rw pipelineRow) run(t *testing.T) *er.Result {
	t.Helper()
	opts := er.RunOptions{Parallelism: 4}
	if rw.spilling {
		opts.SpillBudget, opts.TmpDir = 128, t.TempDir()
	}
	if rw.fault.install != nil {
		rw.fault.install(&opts, rw.strat)
	}
	var m core.Matcher = match.EditDistance("title", rw.in.th)
	if rw.pairFunc {
		m = core.PairFunc(func(a, b string) (float64, bool) {
			sim := similarity.LevenshteinSimilarity(a, b)
			return sim, sim >= rw.in.th
		})
	}
	cfg := er.Config{
		RunOptions: opts,
		Strategy:   rw.strat, Attr: "title", BlockKey: rw.in.key, Matcher: m, R: rw.in.r, UseCombiner: rw.in.combiner,
	}
	var res *er.Result
	var err error
	switch parts := rw.in.parts; {
	case rw.in.mR > 0:
		res, err = er.RunDualPipeline(context.Background(), er.FromPartitions(parts[:rw.in.mR]), er.FromPartitions(parts[rw.in.mR:]), cfg)
	case rw.in.bottom:
		res, err = er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(parts), cfg)
	default:
		res, err = er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	}
	if err != nil {
		t.Fatalf("%v", err)
	}
	return res
}

// checkPipeline runs rw and holds it to want, the fault-free in-memory
// run of its input and strategy (P1). A nil want makes this run the
// want, which it returns once it holds it to the serial oracle (P3):
// the other rows' matches and comparisons are the want's. A
// deterministic fault schedule must have failed an attempt of the job
// it targets: Job 1 under inBDM, the match job otherwise.
func checkPipeline(t *testing.T, name string, rw pipelineRow, want *er.Result) *er.Result {
	t.Helper()
	before := testleak.Snapshot()
	res := rw.run(t)
	testleak.Check(t, before)
	if rw.fault.install != nil && !rw.fault.mayMiss {
		job, retries := "the match job", res.MatchResult.Retries
		if rw.fault.inBDM {
			job, retries = "Job 1", res.BDMResult.Retries
		}
		if retries == 0 {
			t.Fatalf("%s: fault %s never failed an attempt of %s", name, rw.fault.name, job)
		}
	}
	zeroHistory(res)
	if want != nil {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: %s diverges from the fault-free in-memory run", name, rw.fault.name)
		}
		return res
	}
	pairs, comps := serialOracle(rw.in, testMatcher(rw.in.th))
	switch {
	case len(pairs) == 0:
		t.Fatalf("%s: differential vacuous, no matches", name)
	case !slices.Equal(res.Matches, pairs) || res.Comparisons != comps:
		t.Fatalf("%s: %d matches in %d comparisons; the serial oracle has %d in %d", name, len(res.Matches), res.Comparisons, len(pairs), comps)
	}
	return res
}

// checkForms holds each strategy over in, in each residency of where
// and with each matcher form, to its native typed run.
func checkForms(t *testing.T, in pipelineInput, where map[string]bool) {
	for _, strat := range in.strategies() {
		want := checkPipeline(t, in.name+"/"+strat.Name(), pipelineRow{in: in, strat: strat}, nil)
		for dname, spilling := range where {
			for _, pairFunc := range []bool{false, true} {
				if spilling || pairFunc {
					name := fmt.Sprintf("%s/%s/%s/pairFunc=%v", in.name, strat.Name(), dname, pairFunc)
					checkPipeline(t, name, pipelineRow{in: in, strat: strat, spilling: spilling, pairFunc: pairFunc}, want)
				}
			}
		}
	}
}

// faultInputs are the fault rows' inputs: 150 generated entities in
// three partitions as one source, as R (the first) and S (the other
// two), and with missingKeyBlocker leaving some of them keyless. The
// one-source input has no name, so its subtests keep their names.
func faultInputs() []pipelineInput {
	one := pipelineInput{parts: entity.SplitRoundRobin(testEntities(150, 3), 3), key: datagen.BlockKey(), th: 0.8, r: 5, combiner: true}
	two, bottom := one, one
	two.name, two.mR = "/two-sources", 1
	bottom.name, bottom.bottom, bottom.key = "/missing-keys", true, missingKeyBlocker
	return []pipelineInput{one, two, bottom}
}

// TestERChaosDifferential runs every fault input and strategy under the
// -chaos-seed schedule, which the chaos-smoke CI job randomizes.
func TestERChaosDifferential(t *testing.T) {
	wants := map[string]*er.Result{}
	for _, in := range faultInputs() {
		for _, strat := range in.strategies() {
			wants[strat.Name()+in.name] = checkPipeline(t, strat.Name()+in.name, pipelineRow{in: in, strat: strat}, nil)
		}
	}
	for dname, spilling := range residencies {
		t.Run(dname, func(t *testing.T) {
			for _, in := range faultInputs() {
				for _, strat := range in.strategies() {
					name := strat.Name() + in.name
					checkPipeline(t, name, pipelineRow{in: in, strat: strat, spilling: spilling, fault: chaosFault(*chaosSeed)}, wants[name])
				}
			}
		})
	}
}

// TestERFaultScheduleDifferential runs every fault input and strategy
// under each fault kind: one source in both residencies, two sources
// and the ⊥ row spilled only, where every kind has its fault point,
// which halves their straggler timeouts. The stragglers stall the match
// job; one row, one source in memory under BlockSplit, stalls Job 1.
func TestERFaultScheduleDifferential(t *testing.T) {
	for _, in := range faultInputs() {
		for _, strat := range in.strategies() {
			want := checkPipeline(t, strat.Name()+in.name, pipelineRow{in: in, strat: strat}, nil)
			if in.name == "" && strat.Name() == (core.BlockSplit{}).Name() {
				t.Run(strat.Name()+"/typed/straggler-timeout-bdm", func(t *testing.T) {
					checkPipeline(t, t.Name(), pipelineRow{in: in, strat: strat, fault: straggler(true)}, want)
				})
			}
			for dname, spilling := range residencies {
				for _, fault := range erFaults() {
					if !spilling && (fault.extOnly || in.name != "") {
						continue
					}
					t.Run(fmt.Sprintf("%s%s/%s/%s", strat.Name(), in.name, dname, fault.name), func(t *testing.T) {
						checkPipeline(t, t.Name(), pipelineRow{in: in, strat: strat, spilling: spilling, fault: fault}, want)
					})
				}
			}
		}
	}
}

// randEntities builds a dataset of random short titles over a small
// alphabet, so blocks collide and near-duplicates occur naturally.
func randEntities(rng *rand.Rand, n int) []entity.Entity {
	es := make([]entity.Entity, n)
	for i := range es {
		ln := 3 + rng.Intn(10)
		var b strings.Builder
		for j := 0; j < ln; j++ {
			if rng.Intn(7) == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(byte('a' + rng.Intn(4)))
			}
		}
		es[i] = entity.New(fmt.Sprintf("e%03d", i), "title", b.String())
	}
	return es
}

// mixedEntities is randEntities with accented and CJK runes mixed into
// some titles, so reduce groups hold ASCII and non-ASCII rows side by
// side and the native block's rune fallback decides real pairs.
func mixedEntities(rng *rand.Rand, n int) []entity.Entity {
	alphabet := []rune("aabbccdd  é日")
	es := make([]entity.Entity, n)
	for i := range es {
		rs := make([]rune, 3+rng.Intn(10))
		for j := range rs {
			rs[j] = alphabet[rng.Intn(len(alphabet))]
		}
		rs[0] = rune('a' + rng.Intn(3)) // the blocking prefix stays ASCII
		es[i] = entity.New(fmt.Sprintf("e%03d", i), "title", string(rs))
	}
	return es
}

// TestPreparedMatcherDifferential: over random datasets, m and r, both
// matcher forms of every strategy run in memory to the same Result and
// the serial oracle's matches.
func TestPreparedMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 6; trial++ {
		es := randEntities(rng, 60+rng.Intn(120))
		m := 1 + rng.Intn(4)
		r := 1 + rng.Intn(8)
		th := []float64{0.5, 0.8, 0.6}[trial%3]
		checkForms(t, pipelineInput{name: fmt.Sprintf("trial %d m=%d r=%d th=%v", trial, m, r, th),
			parts: entity.SplitRoundRobin(es, m), key: blocking.NormalizedPrefix(2), th: th, r: r}, map[string]bool{"typed": false})
	}
}

// TestPreparedMatcherDualDifferential is the same over two sources.
func TestPreparedMatcherDualDifferential(t *testing.T) {
	es := randEntities(rand.New(rand.NewSource(7777)), 150)
	checkForms(t, pipelineInput{name: "two sources", parts: append(entity.SplitRoundRobin(es[:90], 2), entity.SplitRoundRobin(es[90:], 3)...),
		mR: 2, key: blocking.NormalizedPrefix(2), th: 0.6, r: 4}, map[string]bool{"typed": false})
}

// TestBlockKernelDifferential proves the one reduce-side comparison
// path is the same path for both kinds of core.Matcher: the native
// structure-of-arrays block of match.EditDistance and a core.PairFunc
// over the rune DP, similarity.LevenshteinSimilarity, produce identical
// full Results — similarities in emit order and every TaskMetrics field
// — for every strategy over one source and, where it uses the BDM, two,
// on the typed and the external dataflow.
func TestBlockKernelDifferential(t *testing.T) {
	es := mixedEntities(rand.New(rand.NewSource(1313)), 220)
	one := pipelineInput{name: "one source", parts: entity.SplitRoundRobin(es, 4), key: blocking.NormalizedPrefix(1), th: 0.6, r: 5}
	two := one
	two.name, two.parts, two.mR = "two sources", append(entity.SplitRoundRobin(es[:130], 2), entity.SplitRoundRobin(es[130:], 3)...), 2
	checkForms(t, one, residencies)
	checkForms(t, two, residencies)
}

// TestBlockKernelChaos: reduce attempts that die mid-group abandon
// their acquired block; under a fixed seed that fails match-job
// attempts the native block still produces the fault-free Result.
func TestBlockKernelChaos(t *testing.T) {
	rw := pipelineRow{strat: core.PairRange{}, in: pipelineInput{
		parts: entity.SplitRoundRobin(mixedEntities(rand.New(rand.NewSource(99)), 200), 3), key: blocking.NormalizedPrefix(1), th: 0.6, r: 4,
	}}
	want := checkPipeline(t, "fault-free", rw, nil)
	rw.fault = chaosFault(17)
	rw.fault.mayMiss = false
	checkPipeline(t, "chaotic", rw, want)
}

package mapreduce_test

// External-dataflow differential test: every strategy of the paper must
// produce byte-identical Results on the out-of-core engine (disk-backed
// spill runs + external merge) and on the in-memory typed engine, with
// budgets tiny enough that every map task flushes several runs. The
// comparison covers the complete Result — match pairs, comparison
// counts, raw job outputs, and every TaskMetrics field
// except the external-only spill counters — across Basic/BlockSplit/
// PairRange × 1..4 map partitions × 1..8 reduce tasks (UseCombiner on),
// and BlockSplit/PairRange over two sources, each with sequential and
// concurrent execution. This is the proof that moving the shuffle to
// disk changed the residency of the intermediate records and nothing
// else.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// tinySpillBudget forces a spill roughly every record or two: the
// smallest strategy-job map task in the matrix below emits ≥ 17 records
// of ≥ 25 encoded bytes, so every map task writes ≥ 4 runs (asserted).
const tinySpillBudget = 64

// assertSpilled checks every map task flushed at least minRuns runs.
func assertSpilled(t *testing.T, name string, ms []mapreduce.TaskMetrics, minRuns int64) {
	t.Helper()
	for i := range ms {
		if ms[i].SpillRuns < minRuns {
			t.Errorf("%s: map task %d spilled %d runs, want >= %d", name, i, ms[i].SpillRuns, minRuns)
		}
		if ms[i].SpillRuns > 0 && ms[i].SpillBytesWritten == 0 {
			t.Errorf("%s: map task %d has runs but no bytes written", name, i)
		}
	}
}

// clearResultSpillCounters zeroes the spill counters of a job result so
// the remainder compares byte-for-byte against the in-memory engine.
func clearResultSpillCounters(m *mapreduce.Metrics) {
	clearSpillCounters(m.MapMetrics)
	clearSpillCounters(m.ReduceMetrics)
}

func TestExternalDifferentialStrategies(t *testing.T) {
	checkExternalStrategies(t, strategyInputs(false))
}

func TestExternalDifferentialDualStrategies(t *testing.T) {
	checkExternalStrategies(t, strategyInputs(true))
}

// checkExternalStrategies holds every strategy's spilled pipeline over
// ins to its in-memory one; the strategies that need no BDM match one
// source only.
func checkExternalStrategies(t *testing.T, ins []strategyInput) {
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	tmp := t.TempDir()
	for _, in := range ins {
		for r := 1; r <= 8; r++ {
			for _, strat := range strategies {
				if in.mR > 0 && !strat.NeedsBDM() {
					continue
				}
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/r=%d/par=%d", strat.Name(), in.name, r, par)
					cfg := er.Config{
						Strategy:    strat,
						Attr:        "title",
						BlockKey:    blocking.NormalizedPrefix(3),
						Matcher:     titleMatcher(0.85),
						R:           r,
						UseCombiner: true,
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: par}
					typed, err := in.run(cfg)
					if err != nil {
						t.Fatalf("%s: typed run: %v", name, err)
					}

					cfg.Engine = &mapreduce.Engine{
						Parallelism: par,
						SpillBudget: tinySpillBudget,
						TmpDir:      tmp,
					}
					ext, err := in.run(cfg)
					if err != nil {
						t.Fatalf("%s: external run: %v", name, err)
					}

					assertSpilled(t, name+"/match", ext.MatchResult.MapMetrics, 4)
					if ext.BDMResult != nil {
						// The aggregating BDM mapper emits one record per
						// matrix cell — a handful per task here.
						assertSpilled(t, name+"/bdm", ext.BDMResult.MapMetrics, 1)
						clearResultSpillCounters(&ext.BDMResult.Metrics)
					}
					clearResultSpillCounters(&ext.MatchResult.Metrics)

					if !reflect.DeepEqual(typed.Matches, ext.Matches) {
						t.Errorf("%s: match pairs diverge between dataflows", name)
					}
					if typed.Comparisons != ext.Comparisons {
						t.Errorf("%s: comparisons %d (typed) != %d (external)", name, typed.Comparisons, ext.Comparisons)
					}
					if !reflect.DeepEqual(typed.BDMResult, ext.BDMResult) {
						t.Errorf("%s: BDM job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
					if !reflect.DeepEqual(typed.MatchResult, ext.MatchResult) {
						t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
				}
			}
		}
	}
	// Every Run removed its spill directory.
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("spill temp dir not empty after runs: %v (err %v)", ents, err)
	}
}

// TestExternalDifferentialBDMJob holds the BDM job's Result over the
// annotated input to byte equality between memory and disk.
func TestExternalDifferentialBDMJob(t *testing.T) {
	parts := entity.SplitRoundRobin(skewedEntities(), 3)
	job := bdm.Job(bdm.JobOptions{
		Attr:           "title",
		KeyFunc:        blocking.NormalizedPrefix(3),
		NumReduceTasks: 4,
		UseCombiner:    true,
	})
	input := bdm.Annotate(parts, "title", blocking.NormalizedPrefix(3))
	typed, err := job.RunContext(context.Background(), &mapreduce.Engine{Parallelism: 2}, input)
	if err != nil {
		t.Fatalf("typed run: %v", err)
	}
	ext, err := job.RunContext(context.Background(), &mapreduce.Engine{
		Parallelism: 2,
		SpillBudget: tinySpillBudget,
		TmpDir:      t.TempDir(),
	}, input)
	if err != nil {
		t.Fatalf("external run: %v", err)
	}
	assertSpilled(t, "bdm", ext.MapMetrics, 1)
	clearResultSpillCounters(&ext.Metrics)
	if !reflect.DeepEqual(typed, ext) {
		t.Errorf("BDM job Result diverges between dataflows\ntyped: %+v\nexternal: %+v", typed, ext)
	}
}

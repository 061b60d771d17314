package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// assertPlanMatchesExecution executes the strategy's job over the given
// partitions and checks every analytic plan quantity against the
// engine's measured metrics — the core validation that makes the
// planner-driven experiments trustworthy.
func assertPlanMatchesExecution(t *testing.T, strat Strategy, x *bdm.Matrix, parts entity.Partitions, attr string, r int) {
	t.Helper()
	job, err := strat.Job(x, r, nil)
	if err != nil {
		t.Fatalf("%s.Job: %v", strat.Name(), err)
	}
	res, err := job.RunContext(context.Background(), &mapreduce.Engine{}, annotatedInput(parts, attr))
	if err != nil {
		t.Fatalf("%s: Run: %v", strat.Name(), err)
	}
	assertPlanEquals(t, strat, x, res)
}

// assertPlanEquals checks res, a run of strat's job over x, against the
// strategy's plan, task by task.
func assertPlanEquals(t *testing.T, strat Strategy, x *bdm.Matrix, res *MatchJobResult) {
	t.Helper()
	plan, err := strat.Plan(x, len(res.MapMetrics), len(res.ReduceMetrics))
	if err != nil {
		t.Fatalf("%s.Plan: %v", strat.Name(), err)
	}
	for i := range res.MapMetrics {
		if got, want := res.MapMetrics[i].InputRecords, plan.MapRecords[i]; got != want {
			t.Errorf("%s: map task %d records: executed %d, planned %d", strat.Name(), i, got, want)
		}
		if got, want := res.MapMetrics[i].OutputRecords, plan.MapEmits[i]; got != want {
			t.Errorf("%s: map task %d emits: executed %d, planned %d", strat.Name(), i, got, want)
		}
	}
	for j := range res.ReduceMetrics {
		if got, want := res.ReduceMetrics[j].InputRecords, plan.ReduceRecords[j]; got != want {
			t.Errorf("%s: reduce task %d records: executed %d, planned %d", strat.Name(), j, got, want)
		}
		if got, want := res.ReduceMetrics[j].Counter(ComparisonsCounter), plan.ReduceComparisons[j]; got != want {
			t.Errorf("%s: reduce task %d comparisons: executed %d, planned %d", strat.Name(), j, got, want)
		}
	}
	if got, want := sumLoads(plan.ReduceComparisons), x.Pairs(); got != want {
		t.Errorf("%s: plan total comparisons = %d, want P=%d", strat.Name(), got, want)
	}
}

// sumLoads returns the sum of per-task loads.
func sumLoads(loads []int64) int64 {
	var t int64
	for _, l := range loads {
		t += l
	}
	return t
}

// randomParts generates m partitions with block keys drawn from a skewed
// distribution — the fuzz input for plan/execution equivalence and
// completeness properties.
func randomParts(rng *rand.Rand, n, m, blocks int) entity.Partitions {
	es := make([]entity.Entity, n)
	for i := range es {
		// Quadratic skew: low block indexes are much more likely.
		b := int(float64(blocks) * rng.Float64() * rng.Float64())
		if b >= blocks {
			b = blocks - 1
		}
		es[i] = entity.New(fmt.Sprintf("e%04d", i), "k", fmt.Sprintf("b%03d", b))
	}
	parts := make(entity.Partitions, m)
	for _, e := range es {
		p := rng.Intn(m)
		parts[p] = append(parts[p], e)
	}
	return parts
}

func mustBDM(t *testing.T, parts entity.Partitions) *bdm.Matrix {
	t.Helper()
	x, err := bdm.FromPartitions(parts, "k", blocking.Identity())
	if err != nil {
		t.Fatalf("FromPartitions: %v", err)
	}
	return x
}

// annotatedInput builds the typed job input: each entity annotated with
// the id of its blocking key read from the given attribute.
func annotatedInput(parts entity.Partitions, attr string) [][]AnnotatedEntity {
	input, _ := bdm.Annotate(parts, attr, blocking.Identity())
	return input
}

// runStrategy executes a strategy end to end with the given matcher and
// returns the result.
func runStrategy(t *testing.T, strat Strategy, x *bdm.Matrix, parts entity.Partitions, r int, match Matcher) *MatchJobResult {
	t.Helper()
	job, err := strat.Job(x, r, match)
	if err != nil {
		t.Fatalf("%s.Job: %v", strat.Name(), err)
	}
	res, err := job.RunContext(context.Background(), &mapreduce.Engine{}, annotatedInput(parts, "k"))
	if err != nil {
		t.Fatalf("%s: Run: %v", strat.Name(), err)
	}
	return res
}

// blockIndex returns the block of key in x, and whether x has one.
func blockIndex(x *bdm.Matrix, key string) (int, bool) {
	for k := 0; k < x.NumBlocks(); k++ {
		if x.BlockKey(k) == key {
			return k, true
		}
	}
	return -1, false
}

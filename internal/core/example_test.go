package core

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// This file reproduces the paper's running example (Figures 3-7):
// 14 entities in two partitions, four blocks w/x/y/z with sizes
// 4/2/3/5, P = 20 pairs, m = 2 map tasks and r = 3 reduce tasks.

const exAttr = "k"

func exampleParts() entity.Partitions {
	mk := func(id, block string) entity.Entity { return entity.New(id, exAttr, block) }
	return entity.Partitions{
		{mk("A", "w"), mk("B", "w"), mk("C", "x"), mk("D", "y"), mk("E", "y"), mk("F", "z"), mk("G", "z")},
		{mk("H", "w"), mk("I", "w"), mk("K", "y"), mk("L", "x"), mk("M", "z"), mk("N", "z"), mk("O", "z")},
	}
}

func exampleBDM(t *testing.T) *bdm.Matrix {
	t.Helper()
	x, err := bdm.FromPartitions(exampleParts(), exAttr, blocking.Identity())
	if err != nil {
		t.Fatalf("FromPartitions: %v", err)
	}
	return x
}

func TestPaperExampleBDM(t *testing.T) {
	x := exampleBDM(t)
	if got, want := x.NumBlocks(), 4; got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	wantSizes := map[string][2]int{"w": {2, 2}, "x": {1, 1}, "y": {2, 1}, "z": {2, 3}}
	for key, want := range wantSizes {
		k, ok := blockIndex(x, key)
		if !ok {
			t.Fatalf("block %q missing", key)
		}
		if got := [2]int{x.SizeIn(k, 0), x.SizeIn(k, 1)}; got != want {
			t.Errorf("block %q sizes = %v, want %v", key, got, want)
		}
	}
	if got := x.Pairs(); got != 20 {
		t.Errorf("Pairs = %d, want 20 (paper: P=20)", got)
	}
	// Block order w,x,y,z with pair offsets 0, 6, 7, 10 (Figure 6).
	wantOffsets := []int64{0, 6, 7, 10}
	for k, want := range wantOffsets {
		if got := x.PairOffset(k); got != want {
			t.Errorf("PairOffset(%d) = %d, want %d", k, got, want)
		}
	}
	// The largest block z holds 10 of 20 pairs (50%) with 5 of 14
	// entities (~35%), the skew the paper highlights.
	zk, _ := blockIndex(x, "z")
	if got := x.BlockPairs(zk); got != 10 {
		t.Errorf("z pairs = %d, want 10", got)
	}
}

func TestPaperExampleBDMViaMapReduce(t *testing.T) {
	// Algorithm 3's count must agree with the direct builder.
	x, input, res, err := bdm.ComputeContext(context.Background(), nil, exampleParts(), bdm.JobOptions{
		Attr:    exAttr,
		KeyFunc: blocking.Identity(),
	})
	if err != nil {
		t.Fatalf("ComputeContext: %v", err)
	}
	want := exampleBDM(t)
	if !reflect.DeepEqual(x, want) {
		t.Errorf("counted matrix = %v, want %v", x, want)
	}
	// The annotated input must mirror the input partitioning with
	// block-id annotations.
	if len(input) != 2 || len(input[0]) != 7 || len(input[1]) != 7 {
		t.Fatalf("annotated input shape wrong: %d/%d", len(input[0]), len(input[1]))
	}
	if got := x.BlockKey(int(input[1][4].Key)); got != "z" {
		t.Errorf("M's annotated block = %q, want z", got)
	}
	// The count is recorded as footnote 2's combiner emits it: one record
	// per non-zero (block, partition) cell instead of one per entity.
	if res.MapOutputRecords != 8 {
		t.Errorf("count's map output = %d records, want 8 cells", res.MapOutputRecords)
	}
}

func TestPaperExampleBlockSplitAssignment(t *testing.T) {
	x := exampleBDM(t)
	asg := buildAssignment(x, 3, 0)

	// avg = P/r = 20/3 = 6; only block z (10 pairs) is split.
	if asg.avg != 6 {
		t.Fatalf("avg workload = %d, want 6", asg.avg)
	}
	zk, _ := blockIndex(x, "z")
	// Match tasks in descending order: 0.* (6), 3.0×1 (6), 2.* (3),
	// 3.1 (3), 1.* (1), 3.0 (1) — exactly the paper's ordering.
	wantOrder := []struct {
		id    taskID
		comps int64
	}{
		{taskID{block: 0, i: -1, j: -1}, 6},
		{taskID{block: zk, i: 1, j: 0}, 6},
		{taskID{block: 2, i: -1, j: -1}, 3},
		{taskID{block: zk, i: 1, j: 1}, 3},
		{taskID{block: 1, i: -1, j: -1}, 1},
		{taskID{block: zk, i: 0, j: 0}, 1},
	}
	if len(asg.ordered) != len(wantOrder) {
		t.Fatalf("got %d match tasks, want %d", len(asg.ordered), len(wantOrder))
	}
	for i, want := range wantOrder {
		got := asg.ordered[i]
		if got.id != want.id || got.comps != want.comps {
			t.Errorf("task[%d] = %+v (%d comps), want %+v (%d)", i, got.id, got.comps, want.id, want.comps)
		}
	}
	// Greedy assignment: loads 7, 7, 6 ("between six and seven
	// comparisons" per reduce task).
	loads := append([]int64(nil), asg.loads...)
	slices.SortFunc(loads, func(a, b int64) int { return cmp.Compare(b, a) })
	if !reflect.DeepEqual(loads, []int64{7, 7, 6}) {
		t.Errorf("reduce loads = %v, want [7 7 6]", loads)
	}
}

func TestPaperExampleBlockSplitExecution(t *testing.T) {
	x := exampleBDM(t)
	job, err := BlockSplit{}.Job(x, 3, nil)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	res, err := job.RunContext(context.Background(), &mapreduce.Engine{}, annotated(exampleParts()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// "The replication of the five entities for the split block leads
	// to 19 key-value pairs for the 14 input entities."
	if res.MapOutputRecords != 19 {
		t.Errorf("map output = %d key-value pairs, want 19", res.MapOutputRecords)
	}
	assertComparisonLoads(t, res, []int64{7, 7, 6})
	if got := res.Counter(ComparisonsCounter); got != 20 {
		t.Errorf("total comparisons = %d, want P=20", got)
	}
}

func TestPaperExamplePairRangeEnumeration(t *testing.T) {
	x := exampleBDM(t)
	zk, _ := blockIndex(x, "z")
	// Pair indexes of Figure 6: p3(0,2)=11, p3(2,4)=18, p0(2,3)=5.
	pairIndex := func(k int, ex, ey int64) int64 { return geometryOf(x, k).pair(ex, ey) + x.PairOffset(k) }
	if got := pairIndex(zk, 0, 2); got != 11 {
		t.Errorf("p3(0,2) = %d, want 11 (M's pmin)", got)
	}
	if got := pairIndex(zk, 2, 4); got != 18 {
		t.Errorf("p3(2,4) = %d, want 18 (M's pmax)", got)
	}
	if got := pairIndex(0, 2, 3); got != 5 {
		t.Errorf("p0(2,3) = %d, want 5", got)
	}

	ranges := NewRanges(x.Pairs(), 3)
	if ranges.Q != 7 {
		t.Fatalf("Q = %d, want 7", ranges.Q)
	}
	for p, want := range map[int64]int{0: 0, 6: 0, 7: 1, 13: 1, 14: 2, 19: 2} {
		if got := ranges.Index(p); got != want {
			t.Errorf("range of pair %d = %d, want %d", p, got, want)
		}
	}

	// M (index 2 in z, pairs 11, 14, 17, 18) is needed by ranges 1 and 2.
	shares := newShareTable(x, ranges)
	if got := routes(shares, zk, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("M's relevant ranges = %v, want [1 2]", got)
	}
	// F (index 0, pairs 10-13) is needed only by range 1 — the paper
	// notes reduce task 2 receives all of Φ3 but F.
	if got := routes(shares, zk, 0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("F's relevant ranges = %v, want [1]", got)
	}
}

// routes returns the ranges whose share of block k holds entity x: where
// a mapper sends it.
func routes(t *shareTable, k int, x int64) []int {
	var out []int
	for _, s := range t.of(k) {
		if s.entities.has(x) {
			out = append(out, s.task)
		}
	}
	return out
}

func TestPaperExamplePairRangeExecution(t *testing.T) {
	x := exampleBDM(t)
	job, err := PairRange{}.Job(x, 3, nil)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	res, err := job.RunContext(context.Background(), &mapreduce.Engine{}, annotated(exampleParts()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Ranges of 7, 7, and 6 pairs.
	assertComparisonLoads(t, res, []int64{7, 7, 6})
	if got := res.Counter(ComparisonsCounter); got != 20 {
		t.Errorf("total comparisons = %d, want P=20", got)
	}
	// Reduce task 1 receives all five entities of Φ3 plus all three of
	// Φ2 (Figure 7): 8 records. Task 2 receives Φ3 without F: 4.
	if got := res.ReduceMetrics[1].InputRecords; got != 8 {
		t.Errorf("reduce task 1 input = %d records, want 8", got)
	}
	if got := res.ReduceMetrics[2].InputRecords; got != 4 {
		t.Errorf("reduce task 2 input = %d records, want 4", got)
	}
}

func TestPaperExamplePlansMatchExecution(t *testing.T) {
	x := exampleBDM(t)
	for _, strat := range []Strategy{Basic{}, BlockSplit{}, PairRange{}} {
		assertPlanMatchesExecution(t, strat, x, exampleParts(), exAttr, 3)
	}
}

// annotated converts partitions into the (blocking key, entity) records
// Job 2 consumes. The example's blocking key is the entity's block
// attribute itself.
func annotated(parts entity.Partitions) [][]AnnotatedEntity {
	return annotatedInput(parts, exAttr)
}

func assertComparisonLoads(t *testing.T, res *MatchJobResult, wantSortedDesc []int64) {
	t.Helper()
	loads := make([]int64, len(res.ReduceMetrics))
	for i := range res.ReduceMetrics {
		loads[i] = res.ReduceMetrics[i].Counter(ComparisonsCounter)
	}
	sorted := append([]int64(nil), loads...)
	slices.SortFunc(sorted, func(a, b int64) int { return cmp.Compare(b, a) })
	if !reflect.DeepEqual(sorted, wantSortedDesc) {
		t.Errorf("per-task comparisons (sorted desc) = %v, want %v", sorted, wantSortedDesc)
	}
}

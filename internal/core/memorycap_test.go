package core

import (
	"math/rand"
	"testing"

	"repro/internal/entity"
)

// memoryCapDataset: one mid-sized block that stays below the average
// reduce workload when r is small, plus enough other work to raise the
// average above it.
func memoryCapDataset() entity.Partitions {
	var es []entity.Entity
	for i := 0; i < 40; i++ {
		es = append(es, entity.New(id4("mid", i), "k", "mid"))
	}
	for i := 0; i < 60; i++ {
		es = append(es, entity.New(id4("big", i), "k", "big"))
	}
	return entity.SplitRoundRobin(es, 4)
}

func TestBlockSplitMemoryCapForcesSplit(t *testing.T) {
	parts := memoryCapDataset()
	x := mustBDM(t, parts)
	midK, _ := x.BlockIndex("mid")

	// Default behaviour: with r=2 the average workload is large and the
	// mid block (40 entities, 780 pairs) is NOT split.
	def := BuildAssignment(x, 2)
	if def.Split(midK) {
		t.Fatal("mid block unexpectedly split without a memory cap")
	}

	// A 30-entity memory cap forces the split regardless of workload.
	capped := buildAssignment(x, 2, 30)
	if !capped.Split(midK) {
		t.Fatal("memory cap did not force the split")
	}
	// Every match task now buffers at most ~cap entities per side.
	for _, task := range capped.ordered {
		if task.id.i < 0 {
			if x.Size(task.id.block) > 30 {
				t.Errorf("unsplit block %d exceeds the cap with %d entities", task.id.block, x.Size(task.id.block))
			}
			continue
		}
		if n := x.SizeIn(task.id.block, task.id.i); n > 30 {
			t.Errorf("sub-block %d.%d holds %d entities", task.id.block, task.id.i, n)
		}
	}
}

func TestBlockSplitMemoryCapPreservesCompleteness(t *testing.T) {
	parts := memoryCapDataset()
	x := mustBDM(t, parts)
	want := expectedPairs(parts)
	got := comparedPairs(runStrategy(t, BlockSplit{MaxEntitiesPerTask: 25}, x, parts, 3, matchAll))
	if len(got) != len(want) {
		t.Fatalf("compared %d distinct pairs, want %d", len(got), len(want))
	}
	for p, n := range got {
		if n != 1 || !want[p] {
			t.Fatalf("pair %v compared %d times (expected=%v)", p, n, want[p])
		}
	}
}

func TestBlockSplitMemoryCapPlanMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		parts := randomParts(rng, rng.Intn(150)+20, rng.Intn(4)+1, rng.Intn(5)+1)
		x := mustBDM(t, parts)
		r := rng.Intn(6) + 1
		strat := BlockSplit{MaxEntitiesPerTask: rng.Intn(20) + 5}
		assertPlanMatchesExecution(t, strat, x, parts, "k", r)
	}
}

func TestBlockSplitMemoryCapBoundsReduceBuffer(t *testing.T) {
	// The reduce-input records of any single match task stay within
	// 2×cap (cross tasks buffer two sub-blocks).
	parts := memoryCapDataset()
	x := mustBDM(t, parts)
	strat := BlockSplit{MaxEntitiesPerTask: 20}
	res := runStrategy(t, strat, x, parts, 1, nil)
	// r=1: a single reduce task processes every group sequentially, so
	// per-group buffering is what the cap controls; groups equal match
	// tasks here.
	if res.ReduceMetrics[0].InputGroups == 1 {
		t.Fatal("expected multiple match tasks under the cap")
	}
}

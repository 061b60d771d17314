package mapreduce_test

// Strategy-matrix differential test: the matrix of
// dataflow_differential_test.go with the BDM job in its other form — a 1
// per entity instead of one record per matrix cell from the aggregating
// mapper's end-of-input hook — at Parallelism 2. BlockSplit is the
// critical case: its cross-product reduce function silently miscounts
// if equal keys ever arrive out of map-task order.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// skewedEntities builds a small catalog whose prefix-3 blocking yields
// one dominant block, a few mid-size blocks, and singletons — the skew
// shape that forces BlockSplit to split and PairRange to range-straddle.
func skewedEntities() []entity.Entity {
	var es []entity.Entity
	add := func(n int, stem string) {
		for i := 0; i < n; i++ {
			es = append(es, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%7),
			))
		}
	}
	add(40, "canon eos")  // dominant block ("can")
	add(14, "nikon d850") // mid block
	add(9, "sony alpha")  // mid block
	add(5, "fuji xt")     // small block
	add(1, "leica m11")   // singleton
	add(1, "pentax k3")   // singleton
	return es
}

func TestStrategyMatrixShuffleDifferential(t *testing.T) {
	checkStrategyMatrix(t, append(strategyInputs(false), strategyInputs(true)...), []int{2}, false)
}

// TestShuffleMaxGroupRecordsMatchesBlockSizes pins the semantics of the
// streamed MaxGroupRecords metric on a concrete case: with Basic and one
// reduce task, the largest group is exactly the dominant block.
func TestShuffleMaxGroupRecordsMatchesBlockSizes(t *testing.T) {
	es := skewedEntities()
	res, err := er.RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 3)), er.Config{
		Strategy:   core.Basic{},
		Attr:       "title",
		BlockKey:   blocking.NormalizedPrefix(3),
		R:          1,
		RunOptions: er.RunOptions{Engine: &mapreduce.Engine{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MatchResult.ReduceMetrics[0].MaxGroupRecords; got != 40 {
		t.Errorf("MaxGroupRecords = %d, want 40 (the dominant block)", got)
	}
}

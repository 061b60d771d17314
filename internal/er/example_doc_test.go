package er_test

import (
	"context"
	"fmt"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/similarity"
)

// The complete workflow of Figure 2: BDM job, load-balanced matching,
// match collection.
func ExampleRunPipeline() {
	entities := []entity.Entity{
		entity.New("p1", "title", "acme rocket skates"),
		entity.New("p2", "title", "acme rocket skates!"),
		entity.New("p3", "title", "acme anvil"),
		entity.New("p4", "title", "bolt cutter"),
	}
	res, err := er.RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(entities, 2)), er.Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: blocking.NormalizedPrefix(3),
		Matcher: core.PairFunc(func(a, b string) (float64, bool) {
			sim := similarity.LevenshteinSimilarity(a, b)
			return sim, sim >= 0.8
		}),
		R: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("pairs compared:", res.Comparisons)
	for _, m := range res.Matches {
		fmt.Println("match:", m.A, m.B)
	}
	// Output:
	// pairs compared: 3
	// match: p1 p2
}

// Clusters turns pairwise matches into duplicate groups via transitive
// closure.
func ExampleClusters() {
	pairs := []core.MatchPair{
		core.NewMatchPair("a", "b"),
		core.NewMatchPair("c", "b"),
		core.NewMatchPair("x", "y"),
	}
	for _, c := range er.Clusters(pairs) {
		fmt.Println(c)
	}
	// Output:
	// [a b c]
	// [x y]
}

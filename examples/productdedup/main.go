// Productdedup is the paper's motivating workload at library scale:
// deduplicate a skewed product catalog (the DS1 stand-in) with all three
// strategies, measure match quality against the generator's injected
// duplicates, and compare real wall-clock behaviour of the executing
// engine.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/er"
	"repro/internal/match"
)

func main() {
	spec := datagen.DS1Spec(0.02) // ~2,400 products
	entities, truthPairs := datagen.Generate(spec)
	st := datagen.ComputeStats(entities, datagen.AttrTitle, datagen.BlockKey())
	fmt.Printf("catalog: %d products, %d blocks, largest block %.1f%% of entities / %.1f%% of pairs\n",
		st.Entities, st.Blocks, 100*st.LargestBlockFrac, 100*st.LargestPairsFrac)

	truth := make([]core.MatchPair, len(truthPairs))
	for i, tp := range truthPairs {
		truth[i] = core.NewMatchPair(tp[0], tp[1])
	}

	matcher := match.EditDistance(datagen.AttrTitle, 0.8)

	src := er.FromEntities(entities, runtime.NumCPU())
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		start := time.Now()
		res, err := er.RunPipeline(context.Background(), src, er.Config{
			RunOptions:  er.RunOptions{Parallelism: runtime.NumCPU()},
			Strategy:    strat,
			Attr:        datagen.AttrTitle,
			BlockKey:    datagen.BlockKey(),
			Matcher:     matcher,
			R:           4 * runtime.NumCPU(),
			UseCombiner: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		q := er.Evaluate(res.Matches, truth)
		fmt.Printf("%-10s comparisons=%9d matches=%4d precision=%.3f recall=%.3f f1=%.3f wall=%v\n",
			strat.Name(), res.Comparisons, len(res.Matches),
			q.Precision(), q.Recall(), q.F1(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nAll strategies evaluate exactly the same candidate pairs, so")
	fmt.Println("match quality is identical; only the work distribution differs.")
}

// Twosources links two product catalogs R and S (Appendix I of the
// paper): only cross-source pairs sharing a blocking key are compared.
// It runs both BDM strategies over the two sources and verifies they
// find the same links.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/er"
	"repro/internal/match"
)

func main() {
	// Generate one catalog and split it into two overlapping sources:
	// the injected near-duplicates guarantee cross-source matches.
	spec := datagen.DS1Spec(0.005)
	entities, _ := datagen.Generate(spec)
	r, s := datagen.TwoSources(entities, 0.5, 99)
	fmt.Printf("source R: %d entities, source S: %d entities\n", len(r), len(s))

	matcher := match.EditDistance(datagen.AttrTitle, 0.85)

	var results []*er.Result
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		res, err := er.RunDualPipeline(context.Background(),
			er.FromEntities(r, 2),
			er.FromEntities(s, 3),
			er.Config{
				Strategy: strat,
				Attr:     datagen.AttrTitle,
				BlockKey: blocking.NormalizedPrefix(3),
				Matcher:  matcher,
				R:        6,
			})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		fmt.Printf("%-10s cross-source pairs=%d comparisons=%d links=%d\n",
			strat.Name(), res.BDM.Pairs(), res.Comparisons, len(res.Matches))
	}

	if len(results[0].Matches) != len(results[1].Matches) {
		log.Fatalf("strategies disagree: %d vs %d links", len(results[0].Matches), len(results[1].Matches))
	}
	for i := range results[0].Matches {
		if results[0].Matches[i] != results[1].Matches[i] {
			log.Fatalf("strategies disagree at link %d", i)
		}
	}
	fmt.Println("both strategies produced identical link sets ✓")
	show := results[0].Matches
	if len(show) > 5 {
		show = show[:5]
	}
	for _, p := range show {
		fmt.Printf("  %s <-> %s\n", p.A, p.B)
	}
}

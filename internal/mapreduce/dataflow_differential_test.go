package mapreduce_test

// Dataflow differential test: every strategy of the paper must produce
// byte-identical Results on the typed engine (concrete record types +
// binary key codes) and on the boxed any-based oracle it replaced. The
// comparison covers the complete Result — match pairs, comparison
// counts, raw job outputs, side outputs, and every TaskMetrics field —
// across Basic/BlockSplit/PairRange × 1..4 map partitions × 1..8 reduce
// tasks and both dual-source strategies, each with sequential
// (Parallelism 1) and concurrent (Parallelism 4) execution. This is the
// proof that killing interface boxing changed the representation of the
// dataflow and nothing else.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/similarity"
)

func titleMatcher(threshold float64) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		s := similarity.LevenshteinSimilarity(a.Attr("title"), b.Attr("title"))
		return s, s >= threshold
	}
}

func TestDataflowDifferentialStrategies(t *testing.T) {
	es := skewedEntities()
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	for m := 1; m <= 4; m++ {
		parts := entity.SplitRoundRobin(es, m)
		for r := 1; r <= 8; r++ {
			for _, strat := range strategies {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/m=%d/r=%d/par=%d", strat.Name(), m, r, par)
					cfg := er.Config{
						Strategy:    strat,
						Attr:        "title",
						BlockKey:    blocking.NormalizedPrefix(3),
						Matcher:     titleMatcher(0.85),
						R:           r,
						UseCombiner: true,
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: par}
					typed, err := er.Run(parts, cfg)
					if err != nil {
						t.Fatalf("%s: typed run: %v", name, err)
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: par, Dataflow: mapreduce.DataflowBoxed}
					boxed, err := er.Run(parts, cfg)
					if err != nil {
						t.Fatalf("%s: boxed oracle run: %v", name, err)
					}

					if !reflect.DeepEqual(typed.Matches, boxed.Matches) {
						t.Errorf("%s: match pairs diverge between dataflows", name)
					}
					if typed.Comparisons != boxed.Comparisons {
						t.Errorf("%s: comparisons %d (typed) != %d (boxed)", name, typed.Comparisons, boxed.Comparisons)
					}
					if !reflect.DeepEqual(typed.BDMResult, boxed.BDMResult) {
						t.Errorf("%s: BDM job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
					if !reflect.DeepEqual(typed.MatchResult, boxed.MatchResult) {
						t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
				}
			}
		}
	}
}

// dualCatalog builds a skewed two-source catalog: a dominant shared
// block, mid-size blocks, and blocks existing in only one source (which
// the dual strategies must skip entirely).
func dualCatalog() (partsR, partsS []entity.Entity) {
	add := func(dst *[]entity.Entity, n int, stem string) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%5),
			))
		}
	}
	add(&partsR, 18, "canon eos") // dominant block, both sources
	add(&partsS, 12, "canon eos")
	add(&partsR, 7, "nikon d850") // mid block, both sources
	add(&partsS, 5, "nikon d850")
	add(&partsR, 4, "sony alpha") // R-only block: no pairs
	add(&partsS, 3, "fuji xt")    // S-only block: no pairs
	add(&partsR, 1, "leica m11")  // cross-source singleton pair
	add(&partsS, 1, "leica m11")
	return partsR, partsS
}

func TestDataflowDifferentialDualStrategies(t *testing.T) {
	esR, esS := dualCatalog()
	strategies := []core.DualStrategy{core.BlockSplitDual{}, core.PairRangeDual{}}
	for mR := 1; mR <= 2; mR++ {
		partsR := entity.SplitRoundRobin(esR, mR)
		for mS := 1; mS <= 2; mS++ {
			partsS := entity.SplitRoundRobin(esS, mS)
			for r := 1; r <= 8; r++ {
				for _, strat := range strategies {
					for _, par := range []int{1, 4} {
						name := fmt.Sprintf("%s/mR=%d/mS=%d/r=%d/par=%d", strat.Name(), mR, mS, r, par)
						cfg := er.DualConfig{
							Strategy: strat,
							Attr:     "title",
							BlockKey: blocking.NormalizedPrefix(3),
							Matcher:  titleMatcher(0.85),
							R:        r,
						}

						cfg.Engine = &mapreduce.Engine{Parallelism: par}
						typed, err := er.RunDual(partsR, partsS, cfg)
						if err != nil {
							t.Fatalf("%s: typed run: %v", name, err)
						}

						cfg.Engine = &mapreduce.Engine{Parallelism: par, Dataflow: mapreduce.DataflowBoxed}
						boxed, err := er.RunDual(partsR, partsS, cfg)
						if err != nil {
							t.Fatalf("%s: boxed oracle run: %v", name, err)
						}

						if !reflect.DeepEqual(typed.Matches, boxed.Matches) {
							t.Errorf("%s: match pairs diverge between dataflows", name)
						}
						if typed.Comparisons != boxed.Comparisons {
							t.Errorf("%s: comparisons %d (typed) != %d (boxed)", name, typed.Comparisons, boxed.Comparisons)
						}
						if !reflect.DeepEqual(typed.MatchResult, boxed.MatchResult) {
							t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between dataflows", name)
						}
					}
				}
			}
		}
	}
}

// TestDataflowDifferentialSideOutput pins the side-output path (the BDM
// job's annotated entities) to byte equality between the dataflows,
// including the per-map-task partitioning the matching job depends on.
func TestDataflowDifferentialSideOutput(t *testing.T) {
	parts := entity.SplitRoundRobin(skewedEntities(), 3)
	job := bdm.Job(bdm.JobOptions{
		Attr:           "title",
		KeyFunc:        blocking.NormalizedPrefix(3),
		NumReduceTasks: 4,
	})
	input := make([][]bdm.Annotated, len(parts))
	for i, p := range parts {
		input[i] = make([]bdm.Annotated, len(p))
		for k, e := range p {
			input[i][k] = bdm.Annotated{Value: e}
		}
	}
	typed, err := job.RunContext(context.Background(), &mapreduce.Engine{Parallelism: 2}, input)
	if err != nil {
		t.Fatalf("typed run: %v", err)
	}
	boxed, err := job.RunContext(context.Background(), &mapreduce.Engine{Parallelism: 2, Dataflow: mapreduce.DataflowBoxed}, input)
	if err != nil {
		t.Fatalf("boxed oracle run: %v", err)
	}
	if !reflect.DeepEqual(typed, boxed) {
		t.Errorf("BDM job Result (incl. SideOutput) diverges between dataflows\ntyped: %+v\nboxed: %+v", typed, boxed)
	}
}

package er_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

// prefixOrEmpty blocks on the first 2 letters; values starting with '?'
// have no valid key.
func prefixOrEmpty(v string) string {
	if len(v) == 0 || v[0] == '?' {
		return ""
	}
	return blocking.NormalizedPrefix(2)(v)
}

func missingKeyDataset(rng *rand.Rand, n int) []entity.Entity {
	es := make([]entity.Entity, n)
	for i := range es {
		var title string
		if rng.Float64() < 0.2 {
			title = fmt.Sprintf("?unknown %d", rng.Intn(5))
		} else {
			title = fmt.Sprintf("t%d item %d", rng.Intn(4), rng.Intn(6))
		}
		es[i] = entity.New(fmt.Sprintf("e%03d", i), "title", title)
	}
	return es
}

var matchSameTail core.PairFunc = func(a, b string) (float64, bool) {
	return 1, a[len(a)-1] == b[len(b)-1]
}

var matchAll core.PairFunc = func(string, string) (float64, bool) { return 1, true }

// checkPlanned holds a missing-keys run to the house standard: its
// matrix has the ⊥ row, P is the reference's comparisons, and the one
// matching job executed its Plan task by task.
func checkPlanned(t *testing.T, name string, res *er.Result, cfg er.Config, m int, wantComps int64) {
	t.Helper()
	if res.BDM == nil || res.BDMResult == nil || res.BDM.Pairs() != wantComps {
		t.Fatalf("%s: want a BDM with P = %d, got %v", name, wantComps, res.BDM)
	}
	plan, err := cfg.Strategy.Plan(res.BDM, m, cfg.R)
	if err != nil {
		t.Fatal(err)
	}
	for i, mt := range res.MatchResult.MapMetrics {
		if mt.InputRecords != plan.MapRecords[i] || mt.OutputRecords != plan.MapEmits[i] {
			t.Errorf("%s: map task %d read %d, emitted %d; planned %d, %d", name, i, mt.InputRecords, mt.OutputRecords, plan.MapRecords[i], plan.MapEmits[i])
		}
	}
	for j, rt := range res.MatchResult.ReduceMetrics {
		if rt.InputRecords != plan.ReduceRecords[j] || rt.Comparisons != plan.ReduceComparisons[j] {
			t.Errorf("%s: reduce task %d got %d records, %d comparisons; planned %d, %d", name, j, rt.InputRecords, rt.Comparisons, plan.ReduceRecords[j], plan.ReduceComparisons[j])
		}
	}
}

func TestRunWithMissingKeysAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		es := missingKeyDataset(rng, rng.Intn(60)+10)
		m := rng.Intn(3) + 1
		in := pipelineInput{parts: entity.SplitRoundRobin(es, m), bottom: true, key: prefixOrEmpty}
		want, wantComps := serialOracle(in, matchSameTail)
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.BlockSplit{MaxEntitiesPerTask: 6}, core.PairRange{}} {
			cfg := er.Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: prefixOrEmpty,
				Matcher:  matchSameTail,
				R:        rng.Intn(6) + 1,
			}
			res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(in.parts), cfg)
			name := fmt.Sprintf("trial %d %+v", trial, strat)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Comparisons != wantComps {
				t.Errorf("%s: %d comparisons, want %d", name, res.Comparisons, wantComps)
			}
			if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
				t.Errorf("%s: %d matches, want %d", name, len(res.Matches), len(want))
			}
			checkPlanned(t, name, res, cfg, m, wantComps)
		}
	}
}

// TestRunWithMissingKeysAllKeyed: with every key present there is no ⊥
// row, and the run is RunPipeline's to the last metric.
func TestRunWithMissingKeysAllKeyed(t *testing.T) {
	es := []entity.Entity{
		entity.New("a", "title", "aa x"),
		entity.New("b", "title", "aa y"),
		entity.New("c", "title", "bb z"),
	}
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		cfg := er.Config{Strategy: strat, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchAll, R: 2}
		res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := er.RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, plain) {
			t.Errorf("%s: all keyed, the run differs from RunPipeline's", strat.Name())
		}
		if res.BDM.MissingKeys() || res.Comparisons != 1 || len(res.Matches) != 1 {
			t.Errorf("%s: ⊥ row %v, comparisons=%d matches=%d, want none, 1/1", strat.Name(), res.BDM.MissingKeys(), res.Comparisons, len(res.Matches))
		}
	}
}

func TestRunWithMissingKeysAllMissing(t *testing.T) {
	es := []entity.Entity{
		entity.New("a", "title", "?x"),
		entity.New("b", "title", "?y"),
		entity.New("c", "title", "?z"),
	}
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		cfg := er.Config{Strategy: strat, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchAll, R: 3}
		res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Full Cartesian product of 3 entities, all in the ⊥ row.
		if !res.BDM.MissingKeys() || res.BDM.NumBlocks() != 1 || res.Comparisons != 3 || len(res.Matches) != 3 {
			t.Errorf("%s: %d blocks, comparisons=%d matches=%d, want the ⊥ row alone, 3/3", strat.Name(), res.BDM.NumBlocks(), res.Comparisons, len(res.Matches))
		}
		checkPlanned(t, strat.Name(), res, cfg, 2, 3)
	}
}

func TestRunWithMissingKeysSingleNoKeyEntity(t *testing.T) {
	// One keyless entity: it meets both keyed ones, and nothing else.
	es := []entity.Entity{
		entity.New("a", "title", "aa x"),
		entity.New("b", "title", "aa y"),
		entity.New("q", "title", "?"),
	}
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		cfg := er.Config{Strategy: strat, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchAll, R: 2}
		res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 1 blocked pair + 2 ⊥ pairs.
		if res.Comparisons != 3 || len(res.Matches) != 3 {
			t.Errorf("%s: comparisons=%d matches=%d, want 3/3", strat.Name(), res.Comparisons, len(res.Matches))
		}
		checkPlanned(t, strat.Name(), res, cfg, 1, 3)
	}
}

// TestMissingKeysCrossHonoursMemoryCap: the ⊥ row, which holds the
// ⊥×keyed (cross) and ⊥×⊥ pairs, is a block like any other, so at r = 1
// it is one group, and BlockSplit's memory cap splits it — here the only
// block over the cap — with the matches and comparisons of the uncapped
// run.
func TestMissingKeysCrossHonoursMemoryCap(t *testing.T) {
	var es []entity.Entity
	for i := 0; i < 80; i++ {
		title := fmt.Sprintf("t%d item %d", i%10, i%6) // 8 blocks of 8
		if i%5 == 0 {
			title = fmt.Sprintf("?unknown %d", i%7) // 16 keyless
		}
		es = append(es, entity.New(fmt.Sprintf("e%03d", i), "title", title))
	}
	parts := er.FromPartitions(entity.SplitRoundRobin(es, 3))
	run := func(strat core.Strategy) (*er.Result, int64) {
		t.Helper()
		res, err := er.RunWithMissingKeysPipeline(context.Background(), parts, er.Config{
			Strategy: strat, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchSameTail, R: 1,
		})
		if err != nil {
			t.Fatalf("%+v: %v", strat, err)
		}
		return res, res.MatchResult.ReduceMetrics[0].InputGroups
	}
	want, groups := run(core.BlockSplit{})
	if blocks := want.BDM.NumBlocks(); !want.BDM.MissingKeys() || groups != int64(blocks) {
		t.Fatalf("uncapped: %d groups for %d blocks, want the ⊥ row whole", groups, blocks)
	}
	got, groups := run(core.BlockSplit{MaxEntitiesPerTask: 10})
	if groups <= int64(want.BDM.NumBlocks()) {
		t.Errorf("capped: %d groups for %d blocks, want the ⊥ row split", groups, want.BDM.NumBlocks())
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || got.Comparisons != want.Comparisons {
		t.Errorf("capped: %d matches, %d comparisons; uncapped %d, %d", len(got.Matches), got.Comparisons, len(want.Matches), want.Comparisons)
	}
}

// TestRunWithMissingKeysRefusesBasic: Basic has no matrix to plan the ⊥
// row on, so it is refused, as RunDualPipeline refuses it.
func TestRunWithMissingKeysRefusesBasic(t *testing.T) {
	es := missingKeyDataset(rand.New(rand.NewSource(3)), 20)
	_, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), er.Config{
		Strategy: core.Basic{}, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchAll, R: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "Basic") {
		t.Errorf("Basic: err = %v, want a refusal", err)
	}
}

package er

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
)

// serialWithMissing is the reference: blocked pairs for keyed entities
// plus every pair involving at least one no-key entity.
func serialWithMissing(es []entity.Entity, attr string, key blocking.KeyFunc, match core.PairFunc) ([]core.MatchPair, int64) {
	var keyed, noKey []entity.Entity
	for _, e := range es {
		if key(e.Attr(attr)) == "" {
			noKey = append(noKey, e)
		} else {
			keyed = append(keyed, e)
		}
	}
	var pairs []core.MatchPair
	var comparisons int64
	try := func(a, b entity.Entity) {
		comparisons++
		if match == nil {
			return
		}
		if _, ok := match(a, b); ok {
			pairs = append(pairs, core.NewMatchPair(a.ID, b.ID))
		}
	}
	blockPairs, blockComps := SerialMatch(keyed, attr, key, match)
	pairs = append(pairs, blockPairs...)
	comparisons += blockComps
	for _, a := range noKey {
		for _, b := range keyed {
			try(a, b)
		}
	}
	for i := range noKey {
		for j := i + 1; j < len(noKey); j++ {
			try(noKey[i], noKey[j])
		}
	}
	SortMatches(pairs)
	return pairs, comparisons
}

// prefixOrEmpty blocks on the first 2 letters; values starting with '?'
// have no valid key.
func prefixOrEmpty(v string) string {
	if len(v) == 0 || v[0] == '?' {
		return ""
	}
	return blocking.Prefix(2)(v)
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

var matchSameTail core.PairFunc = func(a, b entity.Entity) (float64, bool) {
	ta, tb := a.Attr("title"), b.Attr("title")
	return 1, ta[len(ta)-1] == tb[len(tb)-1]
}

var matchAll core.PairFunc = func(entity.Entity, entity.Entity) (float64, bool) { return 1, true }

func TestRunWithMissingKeysAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		es := missingKeyDataset(rng, rng.Intn(60)+10)
		want, wantComps := serialWithMissing(es, "title", prefixOrEmpty, matchSameTail)
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
			res, err := RunWithMissingKeysPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, rng.Intn(3)+1)), Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: prefixOrEmpty,
				Matcher:  matchSameTail,
				R:        rng.Intn(6) + 1,
			})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, strat.Name(), err)
			}
			if res.Comparisons != wantComps {
				t.Errorf("trial %d %s: %d comparisons, want %d", trial, strat.Name(), res.Comparisons, wantComps)
			}
			if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
				t.Errorf("trial %d %s: %d matches, want %d", trial, strat.Name(), len(res.Matches), len(want))
			}
		}
	}
}

func TestRunWithMissingKeysAllKeyed(t *testing.T) {
	es := []entity.Entity{
		entity.New("a", "title", "aa x"),
		entity.New("b", "title", "aa y"),
		entity.New("c", "title", "bb z"),
	}
	res, err := RunWithMissingKeysPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: prefixOrEmpty,
		Matcher:  matchAll,
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross != nil || res.NoKey != nil {
		t.Error("no missing-key entities: cross/no-key parts should not run")
	}
	if res.Comparisons != 1 || len(res.Matches) != 1 {
		t.Errorf("comparisons=%d matches=%d, want 1/1", res.Comparisons, len(res.Matches))
	}
}

func TestRunWithMissingKeysAllMissing(t *testing.T) {
	es := []entity.Entity{
		entity.New("a", "title", "?x"),
		entity.New("b", "title", "?y"),
		entity.New("c", "title", "?z"),
	}
	res, err := RunWithMissingKeysPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.PairRange{},
		Attr:     "title",
		BlockKey: prefixOrEmpty,
		Matcher:  matchAll,
		R:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Keyed != nil || res.Cross != nil {
		t.Error("all entities lack keys: only the no-key Cartesian part should run")
	}
	// Full Cartesian product of 3 entities.
	if res.Comparisons != 3 || len(res.Matches) != 3 {
		t.Errorf("comparisons=%d matches=%d, want 3/3", res.Comparisons, len(res.Matches))
	}
}

func TestRunWithMissingKeysSingleNoKeyEntity(t *testing.T) {
	// One no-key entity: cross part runs, no-key self part is skipped.
	es := []entity.Entity{
		entity.New("a", "title", "aa x"),
		entity.New("b", "title", "aa y"),
		entity.New("q", "title", "?"),
	}
	res, err := RunWithMissingKeysPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 1)), Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: prefixOrEmpty,
		Matcher:  matchAll,
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoKey != nil {
		t.Error("single no-key entity: self part should be skipped")
	}
	// 1 blocked pair + 2 cross pairs.
	if res.Comparisons != 3 || len(res.Matches) != 3 {
		t.Errorf("comparisons=%d matches=%d, want 3/3", res.Comparisons, len(res.Matches))
	}
}

// TestMissingKeysCrossHonoursMemoryCap: the cross part runs the
// configured strategy, so BlockSplit's memory cap splits the ⊥ block —
// the run's largest — even at r = 1, and the matches stay those of the
// uncapped run. Basic needs no BDM; BlockSplit stands in for it there.
func TestMissingKeysCrossHonoursMemoryCap(t *testing.T) {
	es := missingKeyDataset(rand.New(rand.NewSource(7)), 80)
	parts := FromPartitions(entity.SplitRoundRobin(es, 3))
	run := func(strat core.Strategy) *MissingKeyResult {
		t.Helper()
		res, err := RunWithMissingKeysPipeline(context.Background(), parts, Config{
			Strategy: strat, Attr: "title", BlockKey: prefixOrEmpty, Matcher: matchSameTail, R: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		return res
	}
	want := run(core.BlockSplit{})
	if got := want.Cross.MatchResult.ReduceMetrics[0].InputGroups; got != 1 {
		t.Fatalf("uncapped cross part ran %d groups, want the ⊥ block whole", got)
	}
	for _, strat := range []core.Strategy{core.BlockSplit{MaxEntitiesPerTask: 10}, core.Basic{}} {
		got := run(strat)
		groups := got.Cross.MatchResult.ReduceMetrics[0].InputGroups
		if _, capped := strat.(core.BlockSplit); capped && groups <= 1 {
			t.Errorf("%+v: the cross part ran %d group, want the ⊥ block split", strat, groups)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Comparisons != want.Comparisons {
			t.Errorf("%+v: %d matches, %d comparisons; uncapped BlockSplit %d, %d", strat, len(got.Matches), got.Comparisons, len(want.Matches), want.Comparisons)
		}
	}
}

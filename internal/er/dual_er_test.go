package er

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
)

func TestRunDualAgainstSerial(t *testing.T) {
	es := datagen.Generate(datagen.DS1Spec(0.003))
	r, s := datagen.TwoSources(es, 0.5, 5)
	want, wantComps := SerialMatchDual(r, s, datagen.AttrTitle, datagen.BlockKey(), titleMatcher(0.85))
	for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
		res, err := RunDualPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(r, 2)), FromPartitions(entity.SplitRoundRobin(s, 2)),
			Config{
				Strategy: strat,
				Attr:     datagen.AttrTitle,
				BlockKey: datagen.BlockKey(),
				Matcher:  titleMatcher(0.85),
				R:        5,
			})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
			t.Errorf("%s: %d links, serial reference has %d", strat.Name(), len(res.Matches), len(want))
		}
		if res.Comparisons != wantComps {
			t.Errorf("%s: %d comparisons, want %d", strat.Name(), res.Comparisons, wantComps)
		}
		// Job 1 ran over both sources, and its matrix is tagged.
		if res.BDM == nil || !res.BDM.TwoSources() || res.BDMResult == nil || res.BDM.Pairs() != wantComps {
			t.Errorf("%s: missing or untagged two-source BDM", strat.Name())
		}
	}
}

func TestRunDualValidation(t *testing.T) {
	parts := entity.SplitRoundRobin(smallDataset(), 1)
	if _, err := RunDualPipeline(context.Background(), FromPartitions(parts), FromPartitions(parts), Config{}); err == nil {
		t.Error("empty config: want error")
	}
	if _, err := RunDualPipeline(context.Background(), FromPartitions(parts), FromPartitions(parts), Config{Strategy: core.BlockSplit{}, BlockKey: blocking.NormalizedPrefix(3)}); err == nil {
		t.Error("R=0: want error")
	}
	if _, err := RunDualPipeline(context.Background(), FromPartitions(parts), FromPartitions(parts), Config{Strategy: core.BlockSplit{}, R: 2}); err == nil {
		t.Error("nil BlockKey: want error")
	}
	if _, err := RunDualPipeline(context.Background(), FromPartitions(parts), FromPartitions(parts), Config{Strategy: core.Basic{}, BlockKey: blocking.NormalizedPrefix(3), R: 2}); err == nil {
		t.Error("Basic needs no BDM to tag: want error")
	}
}

func TestSerialMatchDualCountsOnly(t *testing.T) {
	r := []entity.Entity{entity.New("r1", "title", "abc x"), entity.New("r2", "title", "xyz")}
	s := []entity.Entity{entity.New("s1", "title", "abc y"), entity.New("s2", "title", "abq")}
	// Blocks by 3-prefix: "abc": r1 × s1; others singleton per source.
	pairs, comps := SerialMatchDual(r, s, "title", blocking.NormalizedPrefix(3), nil)
	if comps != 1 {
		t.Errorf("comparisons = %d, want 1", comps)
	}
	if len(pairs) != 0 {
		t.Errorf("nil matcher produced pairs: %v", pairs)
	}
}

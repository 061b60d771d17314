package er_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/similarity"
)

// TestConfigSpillBudgetRunsExternal covers the Engine-nil plumbing: a
// Config with SpillBudget > 0, one source or two, must run out-of-core (runs
// actually spill), produce the same matches as the in-memory default,
// and leave TmpDir empty.
func TestConfigSpillBudgetRunsExternal(t *testing.T) {
	var es []entity.Entity
	for i := 0; i < 40; i++ {
		es = append(es, entity.New(fmt.Sprintf("e%02d", i), "title", fmt.Sprintf("camera model %d", i%7)))
	}
	parts := entity.SplitRoundRobin(es, 3)
	matcher := core.PairFunc(func(a, b string) (float64, bool) {
		s := similarity.LevenshteinSimilarity(a, b)
		return s, s >= 0.85
	})
	base := er.Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: blocking.NormalizedPrefix(3),
		Matcher:  matcher,
		R:        4,
	}
	mem, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), base)
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	ext := base
	ext.SpillBudget = 32
	ext.TmpDir = tmp
	res, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), ext)
	if err != nil {
		t.Fatal(err)
	}
	var runs int64
	for i := range res.MatchResult.MapMetrics {
		runs += res.MatchResult.MapMetrics[i].SpillRuns
	}
	if runs == 0 {
		t.Fatal("SpillBudget config did not reach the engine: no runs spilled")
	}
	if !reflect.DeepEqual(mem.Matches, res.Matches) || mem.Comparisons != res.Comparisons {
		t.Fatal("external config run diverges from in-memory run")
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("TmpDir not empty after run: %v", ents)
	}

	// Two-source plumbing.
	base.Strategy = core.PairRange{}
	dmem, err := er.RunDualPipeline(context.Background(), er.FromPartitions(parts[:2]), er.FromPartitions(parts[2:]), base)
	if err != nil {
		t.Fatal(err)
	}
	ext.Strategy = core.PairRange{}
	dext, err := er.RunDualPipeline(context.Background(), er.FromPartitions(parts[:2]), er.FromPartitions(parts[2:]), ext)
	if err != nil {
		t.Fatal(err)
	}
	var druns int64
	for i := range dext.MatchResult.MapMetrics {
		druns += dext.MatchResult.MapMetrics[i].SpillRuns
	}
	if druns == 0 {
		t.Fatal("two-source SpillBudget did not reach the engine")
	}
	if !reflect.DeepEqual(dmem.Matches, dext.Matches) {
		t.Fatal("dual external config run diverges from in-memory run")
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("TmpDir not empty after dual run: %v", ents)
	}
}

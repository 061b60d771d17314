package sn

// Pipeline-API tests for sorted neighborhood: a streaming sink must see
// exactly the window + boundary matches without accumulating them in
// the Result.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

// snPipelineFixture builds a skewed keyed dataset whose ranges are
// smaller than the window, so boundary stitching contributes matches.
func snPipelineFixture() (entity.Partitions, Config) {
	var es []entity.Entity
	for i := 0; i < 48; i++ {
		es = append(es, mk(fmt.Sprintf("e%03d", i), fmt.Sprintf("k%02d", i%12)))
	}
	cfg := Config{
		RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 3}},
		Attr:       "k",
		Key:        identityKey,
		Window:     6,
		R:          5,
		Matcher: func(a, b entity.Entity) (float64, bool) {
			return 1, a.Attr("k") == b.Attr("k")
		},
	}
	return entity.SplitRoundRobin(es, 3), cfg
}

// TestSNSinkStreamsWindowAndBoundaryMatches: with a sink installed,
// Result.Matches stays nil, MatchResult.Output is empty, and a
// Canonical sink reproduces the collected matches — including the
// stitched boundary pairs, which are streamed after the job.
func TestSNSinkStreamsWindowAndBoundaryMatches(t *testing.T) {
	parts, cfg := snPipelineFixture()
	for _, run := range []struct {
		name string
		fn   func(context.Context, er.Source, Config) (*Result, error)
	}{{"keyed", RunPipeline}, {"ranked", RunRankedPipeline}} {
		collected, err := run.fn(context.Background(), er.FromPartitions(parts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		canon := &er.Canonical{}
		scfg.Sink = canon
		streamed, err := run.fn(context.Background(), er.FromPartitions(parts), scfg)
		if err != nil {
			t.Fatal(err)
		}
		if streamed.Matches != nil {
			t.Fatalf("%s: Matches accumulated despite sink", run.name)
		}
		if n := len(streamed.MatchResult.Output); n != 0 {
			t.Fatalf("%s: MatchResult.Output holds %d records, want 0", run.name, n)
		}
		if streamed.Comparisons != collected.Comparisons || streamed.BoundaryComparisons != collected.BoundaryComparisons {
			t.Fatalf("%s: comparison counts diverge under streaming", run.name)
		}
		if !reflect.DeepEqual(canon.Matches(), collected.Matches) {
			t.Fatalf("%s: Canonical sink = %v, want %v", run.name, canon.Matches(), collected.Matches)
		}
	}
}

// TestSNPipelineCancelled: a cancelled context aborts the SN pipeline.
func TestSNPipelineCancelled(t *testing.T) {
	parts, cfg := snPipelineFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := testleak.Snapshot()
	defer testleak.Check(t, before)
	if _, err := RunPipeline(ctx, er.FromPartitions(parts), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := RunRankedPipeline(ctx, er.FromPartitions(parts), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("ranked: err = %v, want context.Canceled", err)
	}
}

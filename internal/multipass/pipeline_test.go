package multipass

// Pipeline-API tests for multi-pass blocking: because the
// least-common-key rule fires before the matcher, a streaming sink sees
// each match exactly once despite the replication.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

func pipelineFixture() (entity.Partitions, Config) {
	var es []entity.Entity
	for i := 0; i < 40; i++ {
		es = append(es, entity.New(fmt.Sprintf("p%02d", i),
			"title", fmt.Sprintf("widget model %d rev %d", i%4, i%3)))
	}
	cfg := Config{
		Passes: []Pass{
			{Name: "prefix", Attr: "title", Key: blocking.Prefix(9)},
			{Name: "suffix", Attr: "title", Key: blocking.Suffix(5)},
		},
		Strategy: core.BlockSplit{},
		Matcher: func(a, b entity.Entity) (float64, bool) {
			return 1, a.Attr("title") == b.Attr("title")
		},
		R: 4,
	}
	return entity.SplitRoundRobin(es, 3), cfg
}

func TestMultipassSinkSeesEachMatchOnce(t *testing.T) {
	parts, cfg := pipelineFixture()
	collected, err := RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon := &er.Canonical{}
	var raw int
	cfg.ErConfig.Sink = er.SinkFunc(func(p core.MatchPair, sim float64) error {
		raw++
		return canon.Consume(p, sim)
	})
	streamed, err := RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := canon.Flush(); err != nil {
		t.Fatal(err)
	}
	if streamed.Matches != nil || len(streamed.MatchResult.Output) != 0 {
		t.Fatal("matches accumulated despite sink")
	}
	if !reflect.DeepEqual(canon.Matches(), collected.Matches) {
		t.Fatal("streamed matches differ from collected matches")
	}
	if raw != len(collected.Matches) {
		t.Fatalf("raw stream carried %d pairs, want %d (least-common-key rule suppresses duplicates)", raw, len(collected.Matches))
	}
}

package experiments

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/report"
)

// Distributed compares local and distributed execution of the full
// workflow per strategy: one DistParams, run once on the in-process
// engine (RunOptions.Master unset) and once dispatched through the
// caller's dist master (erbench -master starts it and workers register
// against it). The "identical" column is the headline property — the
// distributed run's matches and comparison counts must equal the local
// run's exactly, because task attempts run the same typed kernels and
// the shuffle ships the same ERN1 byte stream the local external
// dataflow writes.
func Distributed(ctx context.Context, o Options) (*report.Table, error) {
	if o.Master == nil {
		return nil, fmt.Errorf("experiments: Distributed requires a started dist master (erbench -master)")
	}
	const (
		m         = 8
		r         = 32
		keyPrefix = 3
		threshold = 0.8
	)
	es := ds1(o)
	parts := entity.SplitRoundRobin(es, m)
	t := &report.Table{
		Title: fmt.Sprintf("Distributed vs local execution (DS1 scale=%g, m=%d, r=%d, %d workers)",
			o.scale(), m, r, o.Workers),
		Headers: []string{"strategy", "comparisons", "matches", "local wall", "dist wall", "identical"},
	}
	localOpts := o.runOptions()
	localOpts.Master = nil
	for _, strat := range allStrategies() {
		p := er.DistParams{
			Strategy:    strat.Name(),
			Attr:        datagen.AttrTitle,
			KeyPrefix:   keyPrefix,
			Threshold:   threshold,
			R:           r,
			UseCombiner: true,
		}
		start := time.Now()
		local, err := er.RunDistributedPipeline(ctx, er.FromPartitions(parts), p, localOpts)
		if err != nil {
			return nil, err
		}
		localWall := time.Since(start)

		start = time.Now()
		dist, err := er.RunDistributedPipeline(ctx, er.FromPartitions(parts), p, o.runOptions())
		if err != nil {
			return nil, err
		}
		distWall := time.Since(start)

		identical := local.Comparisons == dist.Comparisons &&
			reflect.DeepEqual(local.Matches, dist.Matches)
		t.AddRow(strat.Name(), dist.Comparisons, len(dist.Matches),
			localWall.Round(time.Millisecond).String(),
			distWall.Round(time.Millisecond).String(),
			identical)
	}
	return t, nil
}

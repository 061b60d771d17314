package experiments

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/report"
)

// Imbalance executes the full workflow per strategy and reports the
// *measured* reduce-task time imbalance from the engine's per-task
// duration histograms — the observed counterpart of BalanceTable's
// analytic load statistics, and the paper's execution-time skew
// argument made visible without a cluster. Each run gets a fresh
// Observer so one strategy's histogram never bleeds into the next;
// the in-memory typed dataflow and the out-of-core external dataflow
// are both measured, since spilling shifts where reduce time goes.
//
// Wall-clock times are nondeterministic, so the table asserts nothing;
// the stable signal is the ordering — Basic's max/mean tracks the
// blocking skew, BlockSplit and PairRange stay near 1.
func Imbalance(ctx context.Context, o Options) (*report.Table, error) {
	scale := minScale(o.scale(), 0.02)
	spec := datagen.DS1Spec(scale)
	es := datagen.Generate(spec)
	parts := entity.SplitRoundRobin(es, 8)
	const r = 32

	t := &report.Table{
		Title:   fmt.Sprintf("Measured reduce-task time imbalance (DS1 scale=%g, %d entities, m=8, r=%d; executed)", scale, len(es), r),
		Headers: []string{"dataflow", "strategy", "comparisons", "tasks", "max ms", "mean ms", "max/mean"},
	}
	dataflows := []struct {
		name        string
		spillBudget int64
	}{
		{"typed", 0},
		{"external", 256 << 10},
	}
	for _, df := range dataflows {
		for _, strat := range allStrategies() {
			observer := obs.New(obs.Options{Log: obs.Quiet()})
			ro := er.RunOptions{
				Parallelism: 8,
				SpillBudget: df.spillBudget,
				TmpDir:      o.TmpDir,
				Obs:         observer,
			}
			res, err := er.RunPipeline(ctx, er.FromPartitions(parts), er.Config{
				RunOptions:  ro,
				Strategy:    strat,
				Attr:        datagen.AttrTitle,
				BlockKey:    datagen.BlockKey(),
				Matcher:     match.EditDistance(datagen.AttrTitle, 0.8),
				R:           r,
				UseCombiner: true,
			})
			if err != nil {
				return nil, err
			}
			s := observer.Engine.ReduceTaskNS.Snapshot()
			t.AddRow(df.name, strat.Name(), res.Comparisons, s.Count,
				fmt.Sprintf("%.2f", float64(s.Max)/1e6),
				fmt.Sprintf("%.2f", s.Mean/1e6),
				fmt.Sprintf("%.2f", s.MaxOverMean()))
		}
	}
	return t, nil
}

// minScale caps the scale for the executed table.
func minScale(s, cap float64) float64 {
	if s > cap {
		return cap
	}
	return s
}

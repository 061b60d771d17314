package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/report"
)

// Imbalance executes the full workflow per strategy and reports the
// *measured* reduce-task time imbalance from the match job's task spans
// in the trace — the observed counterpart of BalanceTable's analytic
// load statistics, and the paper's execution-time skew argument made
// visible without a cluster. Each run gets a fresh Observer so one
// strategy's spans never bleed into the next;
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
				RunOptions: ro,
				Strategy:   strat,
				Attr:       datagen.AttrTitle,
				BlockKey:   datagen.BlockKey(),
				Matcher:    match.EditDistance(datagen.AttrTitle, 0.8),
				R:          r,
			})
			if err != nil {
				return nil, err
			}
			// The match job is named after its strategy, in lower case.
			ds := reduceTaskDurations(observer.Tracer, strings.ToLower(strat.Name()))
			var sum, longest int64
			for _, d := range ds {
				sum, longest = sum+d, max(longest, d)
			}
			mean, ratio := float64(sum)/float64(max(len(ds), 1)), 0.0
			if mean > 0 {
				ratio = float64(longest) / mean
			}
			t.AddRow(df.name, strat.Name(), res.Comparisons, len(ds),
				fmt.Sprintf("%.2f", float64(longest)/1e6),
				fmt.Sprintf("%.2f", mean/1e6),
				fmt.Sprintf("%.2f", ratio))
		}
	}
	return t, nil
}

// reduceTaskDurations pairs the named job's reduce-phase task spans and
// returns each committed task's duration in nanoseconds. A task span
// covers all of its attempts, so a retried task counts once; a span
// that ends failed (Arg 1) counts nothing.
func reduceTaskDurations(tr *obs.Tracer, job string) []int64 {
	id := tr.InternJob(job)
	begun := map[int32]int64{}
	var ds []int64
	for _, ev := range tr.Events() {
		if ev.Kind != obs.KTask || ev.Phase != obs.PhaseReduce || ev.Job != id {
			continue
		}
		switch {
		case ev.Type == obs.EvBegin:
			begun[ev.Task] = ev.TS
		case ev.Type == obs.EvEnd && ev.Arg == 0:
			ds = append(ds, ev.TS-begun[ev.Task])
		}
	}
	return ds
}

// minScale caps the scale for the executed table.
func minScale(s, cap float64) float64 {
	if s > cap {
		return cap
	}
	return s
}

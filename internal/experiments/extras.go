package experiments

import (
	"context"
	"fmt"

	"repro/internal/bdm"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/match"
	"repro/internal/report"
)

// AppendixDual exercises the two-source extension of Appendix I (the
// paper describes the dataflow but reports no measurements): it splits
// the DS1 stand-in into two overlapping sources and reports, per reduce
// task count, the cross-source pair count and each strategy's straggler
// factor (max/mean reduce load) and Gini coefficient.
func AppendixDual(ctx context.Context, o Options) (*report.Table, error) {
	es := ds1(o)
	r1, s1 := datagen.TwoSources(es, 0.5, 17)
	parts := append(entity.SplitRoundRobin(r1, 10), entity.SplitRoundRobin(s1, 10)...)
	sources := make([]bdm.Source, 20)
	for i := 10; i < 20; i++ {
		sources[i] = bdm.SourceS
	}
	x, err := bdm.FromPartitions(parts, datagen.AttrTitle, datagen.BlockKey())
	if err == nil {
		x, err = x.WithSources(sources)
	}
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: fmt.Sprintf("Appendix I: two-source matching R×S (DS1 scale=%g split 50/50, P=%d cross pairs)",
			o.scale(), x.Pairs()),
		Headers: []string{"r", "BlockSplit max/mean", "BlockSplit Gini", "PairRange max/mean", "PairRange Gini"},
	}
	for _, r := range []int{10, 20, 40, 80, 160} {
		row := []any{r}
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
			plan, err := strat.Plan(x, len(parts), r)
			if err != nil {
				return nil, err
			}
			st := plan.ComparisonStats()
			row = append(row, st.MaxOverMean, st.Gini)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Ablations quantifies the design choices DESIGN.md calls out, on the
// DS1 stand-in with m=20.
func Ablations(ctx context.Context, o Options) (*report.Table, error) {
	es := ds1(o)
	parts := entity.SplitRoundRobin(es, 20)
	x, err := bdm.FromPartitions(parts, datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablations (DS1 scale=%g, m=20, r=100)", o.scale()),
		Headers: []string{"ablation", "value", "meaning"},
	}

	// 1. BDM combiner.
	eng := o.engine()
	_, _, plain, err := bdm.ComputeContext(ctx, eng, parts, bdm.JobOptions{
		Attr: datagen.AttrTitle, KeyFunc: datagen.BlockKey(), NumReduceTasks: 20,
	})
	if err != nil {
		return nil, err
	}
	_, _, combined, err := bdm.ComputeContext(ctx, eng, parts, bdm.JobOptions{
		Attr: datagen.AttrTitle, KeyFunc: datagen.BlockKey(), NumReduceTasks: 20, UseCombiner: true,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("BDM combiner (paper footnote 2)",
		float64(plain.MapOutputRecords)/float64(combined.MapOutputRecords),
		"map-output reduction factor")

	// 2. PairRange replication overhead across r.
	for _, r := range []int{20, 160, 1000} {
		plan, err := core.PairRange{}.Plan(x, 20, r)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("PairRange emits per entity (r=%d)", r),
			float64(plan.TotalMapEmits())/float64(x.TotalEntities()),
			"replication factor (Basic = 1.0)")
	}

	// 3. Slot heterogeneity: coarse (1 task/slot) vs fine (8 tasks/slot)
	// makespan for a perfectly balanced workload.
	cfg := cluster.DefaultSlots(10)
	speeds := cfg.SlotSpeeds(cfg.ReduceSlots())
	coarse := make([]float64, cfg.ReduceSlots())
	for i := range coarse {
		coarse[i] = 1000
	}
	fine := make([]float64, 8*cfg.ReduceSlots())
	for i := range fine {
		fine[i] = 125
	}
	mc := cluster.ScheduleWithSpeeds(coarse, speeds).Makespan
	mf := cluster.ScheduleWithSpeeds(fine, speeds).Makespan
	t.AddRow("task granularity under ±15% slot speeds", mc/mf,
		"coarse/fine makespan (why more reduce tasks help)")

	// 4. BlockSplit memory cap: forcing small match tasks costs little
	// balance but bounds the reduce-side buffer.
	def, err := core.BlockSplit{}.Plan(x, 20, 100)
	if err != nil {
		return nil, err
	}
	capped, err := core.BlockSplit{MaxEntitiesPerTask: 64}.Plan(x, 20, 100)
	if err != nil {
		return nil, err
	}
	t.AddRow("memory cap 64 entities/task",
		float64(capped.MaxReduceComparisons())/float64(def.MaxReduceComparisons()),
		"max reduce load vs uncapped")

	return t, nil
}

// QualityTable sweeps the match threshold on the DS1 stand-in and
// reports precision/recall/F1 against the generator's injected
// duplicates — executed end to end (real comparisons). Not a paper
// figure (the paper fixes the threshold at 0.8 and studies runtime);
// included because a downstream user tuning a matcher needs it.
func QualityTable(ctx context.Context, o Options) (*report.Table, error) {
	spec := datagen.DS1Spec(minScale(o.scale(), 0.02))
	es, truthPairs := datagen.Generate(spec)
	truth := make([]core.MatchPair, len(truthPairs))
	for i, tp := range truthPairs {
		truth[i] = core.NewMatchPair(tp[0], tp[1])
	}
	parts := entity.SplitRoundRobin(es, 8)
	t := &report.Table{
		Title:   fmt.Sprintf("Match quality vs. threshold (DS1 scale=%g, %d entities, %d true duplicates)", minScale(o.scale(), 0.02), len(es), len(truth)),
		Headers: []string{"threshold", "comparisons", "matches", "precision", "recall", "F1"},
	}
	for _, th := range []float64{0.60, 0.70, 0.80, 0.90, 0.95} {
		th := th
		res, err := er.RunPipeline(ctx, er.FromPartitions(parts), er.Config{
			RunOptions:  o.runOptions(),
			Strategy:    core.BlockSplit{},
			Attr:        datagen.AttrTitle,
			BlockKey:    datagen.BlockKey(),
			Matcher:     match.EditDistance(datagen.AttrTitle, th),
			R:           32,
			UseCombiner: true,
		})
		if err != nil {
			return nil, err
		}
		q := er.Evaluate(res.Matches, truth)
		t.AddRow(th, res.Comparisons, len(res.Matches), q.Precision(), q.Recall(), q.F1())
	}
	return t, nil
}

// minScale caps the scale for executed-mode tables.
func minScale(s, cap float64) float64 {
	if s > cap {
		return cap
	}
	return s
}

// BalanceTable reports per-strategy load statistics (straggler factor,
// CV, Gini) on the DS1 stand-in — the quantitative core of the paper's
// balance argument, independent of any cost model.
func BalanceTable(ctx context.Context, o Options) (*report.Table, error) {
	es := ds1(o)
	const m, r = 20, 100
	x, err := bdm.FromPartitions(entity.SplitRoundRobin(es, m), datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Reduce-task balance (DS1 scale=%g, m=%d, r=%d, P=%d)", o.scale(), m, r, x.Pairs()),
		Headers: []string{"strategy", "max load", "mean", "max/mean", "CV", "Gini"},
	}
	for _, strat := range allStrategies() {
		plan, err := strat.Plan(x, m, r)
		if err != nil {
			return nil, err
		}
		st := plan.ComparisonStats()
		t.AddRow(strat.Name(), st.Max, st.Mean, st.MaxOverMean, st.CV, st.Gini)
	}
	return t, nil
}

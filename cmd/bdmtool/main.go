// Command bdmtool computes and prints the Block Distribution Matrix of a
// CSV dataset, plus summary statistics: what the first MR job of the
// paper's workflow would produce.
//
// Usage:
//
//	bdmtool -in ds1.csv -m 8
//	bdmtool -in ds1.csv -m 8 -top 20     # 20 largest blocks only
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	var (
		in     = flag.String("in", "", "input CSV (default stdin)")
		attr   = flag.String("attr", datagen.AttrTitle, "blocking attribute")
		m      = flag.Int("m", 4, "number of input partitions (map tasks)")
		r      = flag.Int("r", 4, "number of reduce tasks for the BDM job")
		prefix = flag.Int("prefix", 3, "blocking key length")
		top    = flag.Int("top", 10, "print only the N largest blocks (0 = all)")
		plan   = flag.String("plan", "", "also show a strategy's reduce-task plan and timeline: basic, blocksplit, or pairrange")
		nodes  = flag.Int("nodes", 4, "simulated cluster size for the -plan timeline")
		obsCLI obs.CLI
	)
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Bad flags are usage errors, decided before the input is opened so
	// that a typo fails fast with exit 2 instead of after the BDM run.
	switch {
	case *m < 1 || *r < 1 || *prefix < 1 || *nodes < 1:
		usage(fmt.Errorf("-m, -r, -prefix and -nodes must be at least 1, got %d, %d, %d and %d", *m, *r, *prefix, *nodes))
	case *top < 0:
		usage(fmt.Errorf("-top must be 0 (all blocks) or more, got %d", *top))
	}
	if *plan != "" {
		if _, err := planStrategy(*plan); err != nil {
			usage(err)
		}
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	// Stream rows straight into the m input partitions (no intermediate
	// full entity slice).
	parts, err := entity.ReadPartitionsCSV(src, *m)
	if err != nil {
		fail(err)
	}
	observer, err := obsCLI.Start(nil)
	if err != nil {
		usage(err)
	}
	// Ctrl-C cancels the BDM job between engine tasks.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	matrix, _, _, err := bdm.ComputeContext(ctx, &mapreduce.Engine{Obs: observer}, parts, bdm.JobOptions{
		Attr:           *attr,
		KeyFunc:        blocking.NormalizedPrefix(*prefix),
		NumReduceTasks: *r,
		UseCombiner:    true,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("entities=%d partitions=%d blocks=%d pairs=%d\n",
		parts.Total(), matrix.NumPartitions(), matrix.NumBlocks(), matrix.Pairs())

	type row struct {
		k     int
		size  int
		pairs int64
	}
	rows := make([]row, matrix.NumBlocks())
	for k := range rows {
		rows[k] = row{k: k, size: matrix.Size(k), pairs: matrix.BlockPairs(k)}
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(b.pairs, a.pairs) })
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}

	t := &report.Table{Headers: []string{"block", "key", "entities", "pairs", "%pairs"}}
	for _, rw := range rows {
		pct := 0.0
		if matrix.Pairs() > 0 {
			pct = 100 * float64(rw.pairs) / float64(matrix.Pairs())
		}
		t.AddRow(rw.k, matrix.BlockKey(rw.k), rw.size, rw.pairs, fmt.Sprintf("%.1f%%", pct))
	}
	if err := t.Fprint(os.Stdout); err != nil {
		fail(err)
	}

	if *plan != "" {
		if err := showPlan(matrix, *plan, *m, *r, *nodes); err != nil {
			fail(err)
		}
	}
	if err := obsCLI.Finish(); err != nil {
		fail(fmt.Errorf("write trace: %w", err))
	}
}

// showPlan prints a strategy's per-reduce-task workload statistics and
// the simulated reduce-phase timeline on a small cluster.
func showPlan(matrix *bdm.Matrix, name string, m, r, nodes int) error {
	strat, err := planStrategy(name)
	if err != nil {
		return err
	}
	plan, err := strat.Plan(matrix, m, r)
	if err != nil {
		return err
	}
	st := plan.ComparisonStats()
	fmt.Printf("\n%s plan: r=%d max=%d mean=%.1f max/mean=%.2f CV=%.3f Gini=%.3f\n",
		strat.Name(), r, st.Max, st.Mean, st.MaxOverMean, st.CV, st.Gini)

	cfg := cluster.DefaultSlots(nodes)
	cm := cluster.DefaultCostModel()
	jr, err := cluster.SimulateJob(cfg, cm, plan.Workload(strat.Name()))
	if err != nil {
		return err
	}
	fmt.Printf("simulated reduce phase on %d nodes (makespan %.0f units, utilization %.1f%%):\n",
		nodes, jr.ReducePhase.Makespan, 100*jr.ReducePhase.Utilization())
	fmt.Print(jr.ReducePhase.Gantt(60))
	return nil
}

func planStrategy(name string) (core.Strategy, error) {
	switch name {
	case "basic":
		return core.Basic{}, nil
	case "blocksplit":
		return core.BlockSplit{}, nil
	case "pairrange":
		return core.PairRange{}, nil
	default:
		return nil, fmt.Errorf("unknown -plan strategy %q (want basic, blocksplit, or pairrange)", name)
	}
}

// fail reports a runtime error (exit 1); usage reports a bad
// invocation with exit 2, matching the other er commands.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "bdmtool: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "bdmtool: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'bdmtool -h' for usage")
	os.Exit(2)
}

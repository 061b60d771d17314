// Command erbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	erbench -figure 9            # one figure (8-14)
//	erbench -all                 # everything
//	erbench -figure 13 -scale 1  # full-size DS1 (plans keep it fast)
//	erbench -figure 10 -csv      # machine-readable output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/entity"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "figure to reproduce (8-14)")
		all       = flag.Bool("all", false, "reproduce all figures")
		appendix  = flag.Bool("appendix", false, "run the Appendix I two-source experiment")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		balance   = flag.Bool("balance", false, "report per-strategy reduce-task balance statistics")
		imbalance = flag.Bool("imbalance", false, "execute the jobs and report measured per-strategy reduce-task time imbalance (max/mean, from the match job's task spans in the trace)")
		scale     = flag.Float64("scale", 0.05, "dataset scale factor in (0,1]; 1 = paper-sized datasets")
		tmpdir    = flag.String("tmpdir", "", "where -imbalance's out-of-core runs spill (default: system temp dir); created on first use")
		in        = flag.String("in", "", "CSV dataset replacing the generated DS1 stand-in")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Out-of-range values are refused here, before the input is read;
	// the negated test also refuses a NaN scale.
	if !(*scale > 0 && *scale <= 1) {
		usage(fmt.Errorf("-scale must be in (0,1], got %g", *scale))
	}
	if *figure != 0 && (*figure < 8 || *figure > 14) {
		usage(fmt.Errorf("-figure must be in 8..14, got %d", *figure))
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.TmpDir = *tmpdir
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		// The figures partition the dataset themselves: read it as one
		// partition, in file order.
		parts, err := entity.ReadPartitionsCSV(f, 1)
		f.Close()
		if err != nil {
			fail(err)
		}
		opts.Dataset = parts[0]
		if len(opts.Dataset) == 0 {
			// A nil Dataset would silently fall back to the generated
			// DS1 stand-in; an empty -in file is a user error.
			fail(fmt.Errorf("-in %s contains no entities", *in))
		}
	}
	// The run context: Ctrl-C / SIGTERM cancels every engine task
	// attempt of -imbalance, the one table that runs jobs.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var figures []int
	if *all {
		figures = []int{8, 9, 10, 11, 12, 13, 14}
	} else if *figure != 0 {
		figures = []int{*figure}
	}
	var runs []func(experiments.Options) (*report.Table, error)
	for _, f := range figures {
		runs = append(runs, func(o experiments.Options) (*report.Table, error) {
			return experiments.ByNumber(f, o)
		})
	}
	if *appendix || *all {
		runs = append(runs, experiments.AppendixDual)
	}
	if *ablations || *all {
		runs = append(runs, experiments.Ablations)
	}
	if *balance || *all {
		runs = append(runs, experiments.BalanceTable)
	}
	if *imbalance || *all {
		runs = append(runs, func(o experiments.Options) (*report.Table, error) {
			return experiments.Imbalance(ctx, o)
		})
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "erbench: specify -figure 8..14, -all, -appendix, -ablations, -balance or -imbalance")
		flag.Usage()
		os.Exit(2)
	}

	for i, run := range runs {
		table, err := run(opts)
		if err != nil {
			fail(err)
		}
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			err = table.WriteCSV(os.Stdout)
		} else {
			err = table.Fprint(os.Stdout)
		}
		if err != nil {
			fail(err)
		}
	}
}

// fail reports a runtime error (exit 1); usage reports a bad
// invocation with exit 2, matching the other er commands.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'erbench -h' for usage")
	os.Exit(2)
}

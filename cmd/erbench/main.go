// Command erbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	erbench -figure 9            # one figure (8-14)
//	erbench -all                 # everything
//	erbench -figure 13 -scale 1  # full-size DS1 (planner mode keeps it fast)
//	erbench -figure 10 -csv      # machine-readable output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/entity"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runio"
)

func main() {
	var (
		figure      = flag.Int("figure", 0, "figure to reproduce (8-14)")
		all         = flag.Bool("all", false, "reproduce all figures")
		appendix    = flag.Bool("appendix", false, "run the Appendix I two-source experiment")
		ablations   = flag.Bool("ablations", false, "run the design-choice ablations")
		balance     = flag.Bool("balance", false, "report per-strategy reduce-task balance statistics")
		imbalance   = flag.Bool("imbalance", false, "execute the jobs and report measured per-strategy reduce-task time imbalance (max/mean, from the obs duration histograms)")
		scale       = flag.Float64("scale", 0.05, "dataset scale factor in (0,1]; 1 = paper-sized datasets")
		executed    = flag.Bool("exec", false, "figures 9/10: execute the real MapReduce jobs instead of the analytic planner (identical tables, slower)")
		parallelism = flag.Int("parallelism", 0, "engine worker bound for executed runs (0 = default)")
		spillBudget = flag.String("spill-budget", "0", "per-map-task spill budget in bytes for executed runs (suffixes k/m/g); 0 keeps map output in memory, > 0 spills a sorted run to disk each time a task has buffered that much")
		tmpdir      = flag.String("tmpdir", "", "where spilled runs go (default: system temp dir); created on first use")
		in          = flag.String("in", "", "CSV dataset replacing the generated DS1 stand-in (streamed row by row)")
		csv         = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		maxAttempts = flag.Int("max-attempts", 0, "per-task attempt budget for executed runs (0 = engine default)")
		taskTimeout = flag.Duration("task-timeout", 0, "per-attempt wall-clock timeout for executed runs (0 = none)")
		faults      = flag.String("faults", "", "deterministic fault injection 'rate[:seed]' for executed runs (e.g. 0.2:7)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the selected runs")
		obsCLI      obs.CLI
	)
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Out-of-range values are refused here, before the input is read or
	// a profiler starts; the negated test also refuses a NaN scale.
	if !(*scale > 0 && *scale <= 1) {
		usage(fmt.Errorf("-scale must be in (0,1], got %g", *scale))
	}
	if *figure != 0 && (*figure < 8 || *figure > 14) {
		usage(fmt.Errorf("-figure must be in 8..14, got %d", *figure))
	}
	if *parallelism < 0 || *maxAttempts < 0 || *taskTimeout < 0 {
		usage(fmt.Errorf("-parallelism, -max-attempts and -task-timeout must not be negative, got -parallelism %d -max-attempts %d -task-timeout %v", *parallelism, *maxAttempts, *taskTimeout))
	}

	observer, err := obsCLI.Start(nil)
	if err != nil {
		usage(err)
	}

	opts := experiments.DefaultOptions()
	opts.Obs = observer
	opts.Scale = *scale
	opts.Executed = *executed
	opts.Parallelism = *parallelism
	opts.TmpDir = *tmpdir
	opts.Retry = mapreduce.RetryPolicy{MaxAttempts: *maxAttempts, TaskTimeout: *taskTimeout}
	if opts.FaultHook, err = mapreduce.ParseChaos(*faults, *maxAttempts); err != nil {
		usage(fmt.Errorf("invalid -faults value: %v (expected rate[:seed], rate in [0,1])", err))
	}
	if opts.SpillBudget, err = runio.ParseByteSize(*spillBudget); err != nil {
		usage(fmt.Errorf("invalid -spill-budget value: %v", err))
	}
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		// Stream the dataset one row at a time (entity.ScanCSV): the
		// only full materialization is the entity slice the figures
		// partition, not a second CSV-row copy.
		scanErr := entity.ScanCSV(f, func(e entity.Entity) error {
			opts.Dataset = append(opts.Dataset, e)
			return nil
		})
		f.Close()
		if scanErr != nil {
			fail(scanErr)
		}
		if len(opts.Dataset) == 0 {
			// A nil Dataset would silently fall back to the generated
			// DS1 stand-in; an empty -in file is a user error.
			fail(fmt.Errorf("-in %s contains no entities", *in))
		}
	}
	// The run context: Ctrl-C / SIGTERM cancels every engine task
	// attempt below (the experiments API threads it throughout).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var figures []int
	if *all {
		figures = []int{8, 9, 10, 11, 12, 13, 14}
	} else if *figure != 0 {
		figures = []int{*figure}
	}
	var runs []func(context.Context, experiments.Options) (*report.Table, error)
	for _, f := range figures {
		runs = append(runs, func(ctx context.Context, o experiments.Options) (*report.Table, error) {
			return experiments.ByNumber(ctx, f, o)
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
		runs = append(runs, experiments.Imbalance)
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "erbench: specify -figure 8..14, -all, -appendix, -ablations, -balance or -imbalance")
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		// fail() exits through os.Exit, so flush via the shared hook
		// rather than a defer.
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfiles()
	}
	if *memProfile != "" {
		path := *memProfile
		writeHeap = func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "erbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "erbench: -memprofile: %v\n", err)
			}
		}
		defer stopProfiles()
	}

	for i, run := range runs {
		table, err := run(ctx, opts)
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
	if err := obsCLI.Finish(); err != nil {
		fail(fmt.Errorf("write trace: %w", err))
	}
}

// stopCPU / writeHeap flush any active -cpuprofile / -memprofile
// output. They are invoked both on the normal exit path (deferred) and
// from fail(), which bypasses defers via os.Exit; stopProfiles makes
// either order idempotent.
var (
	stopCPU   func()
	writeHeap func()
)

func stopProfiles() {
	if stopCPU != nil {
		stopCPU()
		stopCPU = nil
	}
	if writeHeap != nil {
		writeHeap()
		writeHeap = nil
	}
}

// fail reports a runtime error (exit 1); usage reports a bad
// invocation with exit 2, matching the other er commands.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
	stopProfiles()
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'erbench -h' for usage")
	os.Exit(2)
}

// Command ermatch runs blocking-based entity resolution over a CSV
// dataset with a selectable load-balancing strategy, executing the full
// two-job workflow (the BDM count, then the MapReduce matching job) on
// the in-process engine. Matches stream
// as CSV to a file or, with -out -, to stdout, and are never buffered;
// without -out only their count is printed. A file is written
// atomically: the stream lands in a temp file renamed over -out only
// on success, so a failed or interrupted run never leaves a partial
// file. Ctrl-C cancels the run between
// engine tasks, and -max-attempts/-task-timeout/-faults expose the
// engine's retry policy and deterministic fault injection. With
// -master the process becomes the master of a distributed run: it
// listens for erworker registrations and dispatches the matching job's
// tasks to them, producing output byte-identical to the local run. A failed
// run's exit status names its failure class; ermatch -h lists them.
//
// Usage:
//
//	ermatch -in ds1.csv -strategy pairrange -m 8 -r 32 -threshold 0.8
//	ermatch -in ds1.csv -out matches.csv -format csv
//	ergen -dataset ds1 -scale 0.02 | ermatch -strategy blocksplit
//	ermatch -in ds1.csv -master 127.0.0.1:0 -master-addr-file master.addr -workers 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runio"
)

func main() {
	var (
		in          = flag.String("in", "", "input CSV (default stdin)")
		attr        = flag.String("attr", datagen.AttrTitle, "attribute carrying the match-relevant text")
		strategy    = flag.String("strategy", "blocksplit", "basic, blocksplit, or pairrange")
		m           = flag.Int("m", runtime.NumCPU(), "number of map tasks (input partitions)")
		r           = flag.Int("r", 4*runtime.NumCPU(), "number of reduce tasks")
		prefix      = flag.Int("prefix", 3, "blocking key length (title prefix)")
		threshold   = flag.Float64("threshold", 0.8, "minimum normalized edit-distance similarity")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "engine worker bound: concurrently executing tasks per phase (0 = one goroutine per task)")
		spillBudget = flag.String("spill-budget", "0", "per-map-task spill budget in bytes (suffixes k/m/g); 0 keeps map output in memory, > 0 spills a sorted run to disk each time a task has buffered that much")
		tmpdir      = flag.String("tmpdir", "", "where spilled runs (and, with -master, replicas of worker output) go (default: system temp dir); created on first use")
		out         = flag.String("out", "", "stream matches to this file instead of buffering them ('-' = stdout)")
		format      = flag.String("format", "csv", "match output format for -out: csv, the only one")
		maxAttempts = flag.Int("max-attempts", 0, "per-task attempt budget before the run fails (0 = engine default)")
		taskTimeout = flag.Duration("task-timeout", 0, "per-attempt wall-clock timeout; a timed-out attempt is retried (0 = none)")
		faults      = flag.String("faults", "", "deterministic fault injection 'rate[:seed]' for chaos testing (e.g. 0.2:7)")
		masterAddr  = flag.String("master", "", "run distributed: listen for erworker registrations on this address (e.g. 127.0.0.1:0 or :7400)")
		workers     = flag.Int("workers", 0, "distributed: wait for this many registered workers before dispatching tasks")
		addrFile    = flag.String("master-addr-file", "", "distributed: write the master's URL to this file once listening (for scripted worker launch)")
	)
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), exitStatus)
	}
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	budget, err := runio.ParseByteSize(*spillBudget)
	if err != nil {
		usage(fmt.Errorf("invalid -spill-budget value: %v", err))
	}
	if *format != "csv" {
		// Validated before the output file is touched, so a typo'd
		// -format never truncates an existing file.
		usage(fmt.Errorf("unknown -format %q (want csv)", *format))
	}
	// Out-of-range counts are bad invocations too, refused here — before
	// the input is opened — not by whichever layer trips over them.
	if *m < 1 || *r < 1 || *parallelism < 0 || *workers < 0 {
		usage(fmt.Errorf("-m and -r must be at least 1 and -parallelism and -workers at least 0, got -m %d -r %d -parallelism %d -workers %d", *m, *r, *parallelism, *workers))
	}
	// A threshold of 0 or below would count comparisons without
	// matching; NaN would match nothing.
	if !(*threshold > 0 && *threshold <= 1) {
		usage(fmt.Errorf("-threshold must be in (0,1], got %v", *threshold))
	}
	// The run is described once, declaratively: the same parameters
	// drive a local run and a distributed one, whose workers rebuild the
	// identical jobs from them. Expanding them here checks the strategy
	// and -prefix before the input is opened.
	params := er.DistParams{
		Strategy:  *strategy,
		Attr:      *attr,
		KeyPrefix: *prefix,
		Threshold: *threshold,
		R:         *r,
	}
	cfg, err := params.Config()
	if err != nil {
		usage(err)
	}
	if *maxAttempts < 0 || *taskTimeout < 0 {
		usage(fmt.Errorf("-max-attempts and -task-timeout must not be negative, got -max-attempts %d -task-timeout %v", *maxAttempts, *taskTimeout))
	}
	distributed := *masterAddr != "" || *workers > 0 || *addrFile != ""
	if distributed && *masterAddr == "" {
		usage(fmt.Errorf("-workers/-master-addr-file require -master"))
	}
	// When the match stream goes to stdout (-out -), the human-readable
	// report moves to stderr so the streamed CSV stays parseable.
	report := io.Writer(os.Stdout)
	if *out == "-" {
		report = os.Stderr
	}

	// Ctrl-C cancels the run between engine tasks; a spill directory,
	// if the run created one, is removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	faultHook, err := mapreduce.ParseChaos(*faults, *maxAttempts)
	if err != nil {
		usage(fmt.Errorf("invalid -faults value: %v (expected rate[:seed], rate in [0,1])", err))
	}
	observer, err := obsCLI.Start(nil)
	if err != nil {
		usage(err)
	}
	opts := er.RunOptions{
		Parallelism: *parallelism,
		SpillBudget: budget,
		TmpDir:      *tmpdir,
		Retry:       mapreduce.RetryPolicy{MaxAttempts: *maxAttempts, TaskTimeout: *taskTimeout},
		FaultHook:   faultHook,
		Obs:         observer,
	}
	if distributed {
		// The master is started here (not inside the pipeline), before
		// the input is read, so its URL is in -master-addr-file while
		// ingest runs: scripted workers start and register during it, not
		// after it. The pipeline then dispatches through it. It shares
		// the run's Observer: dispatch spans and dist.master.* metrics
		// land in the same trace and /debug/vars as the engine's.
		master := dist.NewMaster(dist.MasterOptions{Addr: *masterAddr, Obs: observer, PProf: obsCLI.PProf})
		if err := master.Start(); err != nil {
			fail(err)
		}
		defer master.Close()
		if *addrFile != "" {
			if err := os.WriteFile(*addrFile, []byte(master.URL()+"\n"), 0o644); err != nil {
				fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "ermatch: master listening at %s (waiting for %d workers)\n", master.URL(), *workers)
		opts.Master = master
		opts.Workers = *workers
	}

	// Rows are built in place in the m input partitions, their strings
	// aliasing the file's bytes: the pre-map memory high-water mark is the
	// input's text plus one Entity and its attributes per row. The source
	// is handed to the pipeline unread. Its one read-and-annotate step,
	// which also takes Job 1's count, is the only holder of the
	// partitions, so they are garbage before the matching job starts,
	// which runs on the annotated rows alone (a caller that read them
	// here would keep them alive through it).
	var src er.Source
	if *in != "" {
		src = er.FromCSVFile(*in, *m)
	} else {
		src = er.FromCSV(os.Stdin, *m)
	}

	// -out installs a streaming writer sink: matches flow from the
	// reduce tasks to the file as they are found and are never
	// accumulated in memory.
	var count func() int64
	var outFile *os.File
	if *out != "" {
		var w io.Writer = os.Stdout
		if *out != "-" {
			// Matches stream into a temp file beside the target; it is
			// renamed over -out only after the run and Close succeed, so a
			// failed or interrupted run never leaves a partial output file
			// (and never clobbers a previous good one).
			f, err := os.CreateTemp(filepath.Dir(*out), "."+filepath.Base(*out)+".tmp-*")
			if err != nil {
				fail(err)
			}
			outFile = f
			cleanupOnFail = func() {
				f.Close()
				os.Remove(f.Name())
			}
			w = f
		}
		s := er.NewCSVSink(w)
		opts.Sink, count = s, s.Count
	}

	start := time.Now()
	// Without -master (opts.Master nil) this is RunPipeline over the
	// expanded Config; every strategy runs match.EditDistance's block.
	res, err := er.RunDistributedPipeline(ctx, src, params, opts)
	if err != nil {
		fail(err)
	}
	// Job 2's map tasks read every entity once, whatever the strategy.
	var nEntities int64
	for _, t := range res.MatchResult.Metrics.MapMetrics {
		nEntities += t.InputRecords
	}
	fmt.Fprintf(report, "strategy=%s entities=%d m=%d r=%d\n", cfg.Strategy.Name(), nEntities, *m, *r)
	if res.BDM != nil {
		_, largest := res.BDM.LargestBlock()
		fmt.Fprintf(report, "blocks=%d pairs=%d largest-block=%d\n", res.BDM.NumBlocks(), res.BDM.Pairs(), largest)
	}
	elapsed := time.Since(start)

	if err := obsCLI.Finish(); err != nil {
		fail(fmt.Errorf("write trace: %w", err))
	}

	nMatches := int64(len(res.Matches))
	if count != nil {
		nMatches = count()
	}
	fmt.Fprintf(report, "comparisons=%d matches=%d wall=%s\n", res.Comparisons, nMatches, elapsed)
	if outFile != nil {
		// A failed close can mean lost buffered writes (quota, NFS);
		// surface it instead of reporting a complete file.
		if err := outFile.Close(); err != nil {
			fail(err)
		}
		if err := os.Rename(outFile.Name(), *out); err != nil {
			fail(err)
		}
		cleanupOnFail = nil
		fmt.Printf("matches streamed to %s (%s)\n", *out, *format)
	}
}

// cleanupOnFail removes the in-flight temp output file; fail runs it
// because os.Exit skips deferred calls.
var cleanupOnFail func()

// obsCLI holds the -trace and -obs-addr flags. fail finishes it too:
// a failed run's trace is the one most worth reading.
var obsCLI obs.CLI

// exitStatus is the exit status section of ermatch -h.
const exitStatus = `
Exit status:
  0  success
  1  any other runtime error (an unreadable input, an unwritable output)
  2  bad invocation, decided before the input is opened
  3  a task failed: its attempts ran out, or it failed fatally
  4  corrupt data: a run file or record blob failed its checks, or a
     worker sent a malformed frame
  5  no live workers to run a task on
`

// exitCode maps a runtime error to its exit status (exitStatus):
// corruption first, since it reaches ermatch inside a *TaskError.
func exitCode(err error) int {
	var te *mapreduce.TaskError
	switch {
	case errors.Is(err, runio.ErrCorrupt), errors.Is(err, dist.ErrFrame):
		return 4
	case errors.Is(err, mapreduce.ErrNoWorkers):
		return 5
	case errors.As(err, &te):
		return 3
	}
	return 1
}

// fail reports a runtime error, with the exit status of its class
// (exitCode), after removing the temp output file and writing the
// -trace file; usage reports a bad invocation — unknown enum value,
// malformed or out-of-range flag, conflicting flags — with exit 2,
// matching the other er commands, and is decided before the input or
// the output file is touched.
func fail(err error) {
	if cleanupOnFail != nil {
		cleanupOnFail()
	}
	fmt.Fprintf(os.Stderr, "ermatch: %v\n", errors.Join(err, obsCLI.Finish()))
	os.Exit(exitCode(err))
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "ermatch: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'ermatch -h' for usage")
	os.Exit(2)
}

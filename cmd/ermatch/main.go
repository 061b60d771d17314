// Command ermatch runs blocking-based entity resolution over a CSV
// dataset with a selectable load-balancing strategy, executing the full
// two-job MapReduce workflow on the in-process engine. Matches can be
// streamed to a file (-out) through the pipeline's writer sinks instead
// of being buffered — written atomically: the stream lands in a temp
// file renamed over -out only on success, so a failed or interrupted
// run never leaves a partial file. Ctrl-C cancels the run between
// engine tasks, and -max-attempts/-task-timeout/-faults expose the
// engine's retry policy and deterministic fault injection. With
// -master the process becomes the master of a distributed run: it
// listens for erworker registrations and dispatches both jobs' tasks
// to them, producing output byte-identical to the local run.
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
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runio"
)

func main() {
	var (
		in           = flag.String("in", "", "input CSV (default stdin)")
		attr         = flag.String("attr", datagen.AttrTitle, "attribute carrying the match-relevant text")
		strategy     = flag.String("strategy", "blocksplit", "basic, blocksplit, or pairrange")
		m            = flag.Int("m", runtime.NumCPU(), "number of map tasks (input partitions)")
		r            = flag.Int("r", 4*runtime.NumCPU(), "number of reduce tasks")
		prefix       = flag.Int("prefix", 3, "blocking key length (title prefix)")
		threshold    = flag.Float64("threshold", 0.8, "minimum normalized edit-distance similarity")
		parallelism  = flag.Int("parallelism", runtime.NumCPU(), "engine worker bound: concurrently executing tasks per phase (0 = one goroutine per task)")
		spillBudget  = flag.String("spill-budget", "0", "per-map-task spill budget in bytes (suffixes k/m/g); 0 keeps map output in memory, > 0 spills a sorted run to disk each time a task has buffered that much")
		tmpdir       = flag.String("tmpdir", "", "where spilled runs (and, with -master, replicas of worker output) go (default: system temp dir); created on first use")
		out          = flag.String("out", "", "stream matches to this file instead of buffering them ('-' = stdout)")
		format       = flag.String("format", "csv", "match output format for -out: csv or ndjson")
		showPairs    = flag.Bool("pairs", false, "print every match pair")
		showClusters = flag.Bool("clusters", false, "print duplicate clusters (transitive closure)")
		simulate     = flag.Bool("simulate", false, "also report simulated cluster time (10 nodes)")
		maxAttempts  = flag.Int("max-attempts", 0, "per-task attempt budget before the run fails (0 = engine default)")
		taskTimeout  = flag.Duration("task-timeout", 0, "per-attempt wall-clock timeout; a timed-out attempt is retried (0 = none)")
		faults       = flag.String("faults", "", "deterministic fault injection 'rate[:seed]' for chaos testing (e.g. 0.2:7)")
		masterAddr   = flag.String("master", "", "run distributed: listen for erworker registrations on this address (e.g. 127.0.0.1:0 or :7400)")
		workers      = flag.Int("workers", 0, "distributed: wait for this many registered workers before dispatching tasks")
		addrFile     = flag.String("master-addr-file", "", "distributed: write the master's URL to this file once listening (for scripted worker launch)")
	)
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	budget, err := runio.ParseByteSize(*spillBudget)
	if err != nil {
		usage(fmt.Errorf("invalid -spill-budget value: %v", err))
	}
	if *out != "" && (*showPairs || *showClusters) {
		usage(fmt.Errorf("-out streams matches without buffering them; it cannot be combined with -pairs or -clusters"))
	}
	if *out != "" && *format != "csv" && *format != "ndjson" {
		// Validated before the output file is touched, so a typo'd
		// -format never truncates an existing file.
		usage(fmt.Errorf("unknown -format %q (want csv or ndjson)", *format))
	}
	// Out-of-range counts are bad invocations too, refused here — before
	// the input is opened — not by whichever layer trips over them.
	if *m < 1 || *r < 1 || *parallelism < 0 {
		usage(fmt.Errorf("-m and -r must be at least 1 and -parallelism at least 0, got -m %d -r %d -parallelism %d", *m, *r, *parallelism))
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
		Strategy:    *strategy,
		Attr:        *attr,
		KeyPrefix:   *prefix,
		Threshold:   *threshold,
		R:           *r,
		UseCombiner: true,
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
	// report moves to stderr so the streamed CSV/NDJSON stays parseable.
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
	// input's text plus one Entity and its attributes per row. Nothing
	// here holds the partitions once the pipeline has them, so Job 2 runs
	// on Job 1's side output alone.
	var src er.Source
	if *in != "" {
		src = er.FromCSVFile(*in, *m)
	} else {
		src = er.FromCSV(os.Stdin, *m)
	}
	parts, err := src.Partitions()
	if err != nil {
		fail(err)
	}
	nEntities := parts.Total()

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
		if *format == "csv" {
			s := er.NewCSVSink(w)
			opts.Sink, count = s, s.Count
		} else {
			s := er.NewNDJSONSink(w)
			opts.Sink, count = s, s.Count
		}
	}

	start := time.Now()
	// Without -master (opts.Master nil) this is RunPipeline over the
	// expanded Config; every strategy runs match.EditDistance's block.
	res, err := er.RunDistributedPipeline(ctx, er.FromPartitions(parts), params, opts)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(report, "strategy=%s entities=%d m=%d r=%d\n", cfg.Strategy.Name(), nEntities, *m, *r)
	if res.BDM != nil {
		_, largest := res.BDM.LargestBlock()
		fmt.Fprintf(report, "blocks=%d pairs=%d largest-block=%d\n", res.BDM.NumBlocks(), res.BDM.Pairs(), largest)
	}
	if *simulate {
		t, err := res.SimulatedTime(cluster.DefaultSlots(10), cluster.DefaultCostModel())
		if err != nil {
			fail(err)
		}
		defer fmt.Fprintf(report, "simulated-cluster-time=%.0f units (10 nodes)\n", t)
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
	if *showPairs {
		for _, p := range res.Matches {
			fmt.Printf("%s\t%s\n", p.A, p.B)
		}
	}
	if *showClusters {
		for _, c := range er.Clusters(res.Matches) {
			fmt.Println(strings.Join(c, " "))
		}
	}
}

// cleanupOnFail removes the in-flight temp output file; fail runs it
// because os.Exit skips deferred calls.
var cleanupOnFail func()

// obsCLI holds the -trace and -obs-addr flags. fail finishes it too:
// a failed run's trace is the one most worth reading.
var obsCLI obs.CLI

// fail reports a runtime error (exit 1) after removing the temp output
// file and writing the -trace file; usage reports a bad invocation —
// unknown enum value, malformed or out-of-range flag, conflicting flags
// — with exit 2, matching the other er commands, and is decided before
// the input or the output file is touched.
func fail(err error) {
	if cleanupOnFail != nil {
		cleanupOnFail()
	}
	fmt.Fprintf(os.Stderr, "ermatch: %v\n", errors.Join(err, obsCLI.Finish()))
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "ermatch: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'ermatch -h' for usage")
	os.Exit(2)
}

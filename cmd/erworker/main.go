// Command erworker is a task-execution worker for the distributed
// runtime: it registers with an ermatch (or any dist.Master) process,
// heartbeats to keep its lease, executes dispatched map/reduce attempts
// of the er pipeline jobs, and serves its map-side ERN1 runs to
// reducers over HTTP range reads. Workers are stateless between jobs —
// killing one mid-task only costs that task's attempt (the master
// reassigns it), and a graceful shutdown (SIGINT/SIGTERM) removes the
// run directory.
//
// Usage:
//
//	erworker -master http://127.0.0.1:7400
//	erworker -master "$(cat master.addr)" -slots 4 -dir /tmp/w1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"

	// Imported for its job builder: the er package registers the
	// "er/match" constructor this worker executes.
	_ "repro/internal/er"
)

func main() {
	var (
		master     = flag.String("master", "", "master base URL, e.g. http://127.0.0.1:7400 (required)")
		listen     = flag.String("listen", "127.0.0.1:0", "task/run server listen address (must be reachable by master and workers)")
		dir        = flag.String("dir", "", "run-file directory root (default: system temp dir); removed on graceful shutdown")
		slots      = flag.Int("slots", 1, "concurrent task capacity advertised to the master")
		markReduce = flag.String("mark-reduce", "", "chaos: write this file when the first reduce attempt starts (kill-timing marker for the smoke script)")
		slowReduce = flag.Duration("slow-reduce", 0, "chaos: stall every reduce attempt this long before executing (widens the kill window)")
		obsCLI     obs.CLI
	)
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *master == "" {
		usage(fmt.Errorf("-master is required"))
	}
	if !strings.Contains(*master, "://") {
		*master = "http://" + *master
	}

	// -trace captures the worker-side task/shuffle timeline on
	// graceful shutdown.
	observer, err := obsCLI.Start()
	if err != nil {
		usage(err)
	}
	opts := dist.WorkerOptions{
		MasterURL: *master,
		Addr:      *listen,
		Dir:       *dir,
		Slots:     *slots,
		Obs:       observer,
	}
	if *markReduce != "" || *slowReduce > 0 {
		opts.TaskStarted = func(ctx context.Context, phase string, task, attempt int) {
			if phase != "reduce" {
				return
			}
			if *markReduce != "" {
				// Best-effort marker: the smoke script polls for this file
				// to learn a reduce attempt is in flight, then kills us.
				os.WriteFile(*markReduce, []byte(fmt.Sprintf("reduce %d attempt %d\n", task, attempt)), 0o644)
			}
			if *slowReduce > 0 {
				t := time.NewTimer(*slowReduce)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
				}
			}
		}
	}
	w, err := dist.StartWorker(opts)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "erworker: serving at %s (master %s, %d slots)\n", w.URL(), *master, *slots)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	w.Stop()
	if err := obsCLI.Finish(); err != nil {
		fail(fmt.Errorf("write trace: %w", err))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "erworker: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "erworker: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'erworker -h' for usage")
	os.Exit(2)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// End-to-end numbers come from real child processes: ermatch reads the
// CSV file and writes the match file, and a user pays a cold heap and
// cold pools on every invocation. Nothing in this file calls into the
// program's packages.

// jobTimeout bounds one child-process job, so a hang fails the
// iteration and not the whole run's time limit.
const jobTimeout = 60 * time.Second

// binaries are the built programs under test.
type binaries struct{ ermatch, erworker string }

// jobStats is what one job cost, summed over its processes.
type jobStats struct {
	wall, cpu time.Duration
	rssKB     int64
	report    report
	matchCSV  []byte
}

// ermatchArgs builds the workload's command line. parallelism is
// passed in because the traced run's residual is taken at 1.
func (w *workload) ermatchArgs(csvPath, outPath, dir string, parallelism int) []string {
	args := []string{
		"-in", csvPath, "-out", outPath, "-format", "csv",
		"-strategy", w.strategy,
		"-m", strconv.Itoa(mapTasks), "-r", strconv.Itoa(reduceTasks),
		"-threshold", strconv.FormatFloat(threshold, 'g', -1, 64),
		"-prefix", strconv.Itoa(prefixLen),
		"-parallelism", strconv.Itoa(parallelism),
	}
	if w.spillBudget > 0 {
		args = append(args, "-spill-budget", strconv.FormatInt(w.spillBudget, 10), "-tmpdir", filepath.Join(dir, "spill"))
	}
	if w.dist {
		args = append(args, "-master", "127.0.0.1:0",
			"-master-addr-file", filepath.Join(dir, "master.addr"),
			"-workers", strconv.Itoa(distWorkers))
	}
	return args
}

// jobEnv carries a jobSpec to the launcher: this same binary, started
// again as a small process whose only work is to run one job.
//
// The launcher exists for peak_rss_mb. Linux seeds a child's ru_maxrss
// with its parent's resident peak at exec, so a child started from
// this process, which holds the datasets, would report this process's
// memory whenever that is the larger. Started from the launcher, whose
// heap is a few MB, the figure is the job's own.
const jobEnv = "BENCHMARK_JOB"

// jobSpec is what the launcher is asked to run.
type jobSpec struct {
	Ermatch  string   `json:"ermatch"`
	Erworker string   `json:"erworker"`
	Args     []string `json:"args"`
	Dir      string   `json:"dir"`
	Dist     bool     `json:"dist"`
}

// jobOutcome is what the launcher reports back on standard output.
type jobOutcome struct {
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	RSSKB  int64  `json:"rss_kb"`
	Stdout string `json:"stdout"`
	Err    string `json:"err,omitempty"`
}

// runJob executes the workload once in its own directory under dir and
// removes the directory afterwards, on every path. Each job has its own
// address file and spill root: two jobs that shared an address file
// failed each other in sizing runs.
func runJob(ctx context.Context, bin binaries, w *workload, csvPath, dir string, parallelism int) (jobStats, error) {
	var st jobStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	outPath := filepath.Join(dir, "matches.csv")
	spec, err := json.Marshal(jobSpec{
		Ermatch: bin.ermatch, Erworker: bin.erworker, Dir: dir, Dist: w.dist,
		Args: w.ermatchArgs(csvPath, outPath, dir, parallelism),
	})
	if err != nil {
		return st, err
	}
	self, err := os.Executable()
	if err != nil {
		return st, err
	}
	launcher := exec.CommandContext(ctx, self)
	launcher.Env = append(os.Environ(), jobEnv+"="+string(spec))
	launcher.Stderr = os.Stderr
	// An interrupt, not a kill: the launcher must live to reap its own
	// children.
	launcher.Cancel = func() error { return launcher.Process.Signal(os.Interrupt) }
	launcher.WaitDelay = 10 * time.Second
	out, err := launcher.Output()
	if err != nil {
		return st, fmt.Errorf("job launcher: %w", err)
	}
	var oc jobOutcome
	if err := json.Unmarshal(out, &oc); err != nil {
		return st, fmt.Errorf("job launcher output %q: %w", out, err)
	}
	st.wall, st.cpu, st.rssKB = time.Duration(oc.WallNS), time.Duration(oc.CPUNS), oc.RSSKB
	if oc.Err != "" {
		return st, errors.New(oc.Err)
	}
	if st.report, err = parseReport(oc.Stdout); err != nil {
		return st, err
	}
	st.matchCSV, err = os.ReadFile(outPath)
	return st, err
}

// launchIfAsked runs one job and reports true when this process was
// started as the launcher; main and TestMain call it first.
func launchIfAsked() bool {
	raw := os.Getenv(jobEnv)
	if raw == "" {
		return false
	}
	var spec jobSpec
	oc := jobOutcome{}
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		oc.Err = fmt.Sprintf("job spec: %v", err)
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		oc = launch(ctx, spec)
		stop()
	}
	json.NewEncoder(os.Stdout).Encode(oc)
	return true
}

// launch starts ermatch, and for a distributed job two erworkers once
// the master's address file appears, and waits for all of them. Wall
// runs from the master's exec to its exit; CPU and peak RSS are summed
// over the job's processes.
func launch(ctx context.Context, spec jobSpec) (oc jobOutcome) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	fail := func(err error) jobOutcome {
		oc.Err = err.Error()
		return oc
	}

	var stdout, stderr bytes.Buffer
	master := exec.CommandContext(ctx, spec.Ermatch, spec.Args...)
	master.Stdout, master.Stderr = &stdout, &stderr
	start := time.Now()
	if err := master.Start(); err != nil {
		return fail(err)
	}
	done := make(chan error, 1)
	go func() { done <- master.Wait() }()

	var workers []*exec.Cmd
	var workerErr [distWorkers]bytes.Buffer
	// Workers are reaped here whatever happens to the master: SIGTERM
	// is erworker's graceful stop, which removes its run directory.
	defer func() {
		for _, wk := range workers {
			wk.Process.Signal(syscall.SIGTERM)
		}
		for _, wk := range workers {
			if err := wk.Wait(); err != nil && oc.Err == "" {
				oc.Err = fmt.Sprintf("erworker: %v", err)
			}
			oc.add(wk)
		}
	}()

	if spec.Dist {
		url, listening := awaitAddrFile(filepath.Join(spec.Dir, "master.addr"), done)
		for i := 0; i < distWorkers && listening; i++ {
			wdir := filepath.Join(spec.Dir, fmt.Sprintf("w%d", i))
			err := os.Mkdir(wdir, 0o755) // erworker wants its -dir to exist
			wk := exec.CommandContext(ctx, spec.Erworker, "-master", url, "-slots", "1", "-dir", wdir)
			wk.Stderr = &workerErr[i]
			if err == nil {
				err = wk.Start()
			}
			if err != nil {
				cancel()
				<-done
				return fail(err)
			}
			workers = append(workers, wk)
		}
	}
	masterErr := <-done
	oc.WallNS = int64(time.Since(start))
	oc.add(master)
	oc.Stdout = stdout.String()
	if masterErr != nil {
		return fail(fmt.Errorf("ermatch: %w: %s%s%s", masterErr, strings.TrimSpace(stderr.String()),
			workerErr[0].String(), workerErr[1].String()))
	}
	return oc
}

// add folds one finished process's rusage into the job's totals.
func (oc *jobOutcome) add(cmd *exec.Cmd) {
	ps := cmd.ProcessState
	if ps == nil {
		return
	}
	oc.CPUNS += int64(ps.UserTime() + ps.SystemTime())
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		oc.RSSKB += int64(ru.Maxrss) // kilobytes on Linux
	}
}

// awaitAddrFile polls for the master's address file and returns the
// URL in it. If the master ends first it reports false and puts the
// master's exit back on done (which has room for it) for the caller.
func awaitAddrFile(path string, done chan error) (url string, listening bool) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			done <- err
			return "", false
		case <-tick.C:
			if b, err := os.ReadFile(path); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				return strings.TrimSpace(string(b)), true
			}
		}
	}
}

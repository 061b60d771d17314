// Package mapreduce implements a from-scratch MapReduce engine faithful
// to the execution model described in Section II of the paper (and to
// Hadoop's semantics where the paper's algorithms depend on them).
//
// A job consists of user map and reduce functions plus the three dataflow
// functions the paper's strategies rely on:
//
//	part  – assigns a map-output key to one of r reduce tasks,
//	comp  – total order on keys used to sort each reduce task's input,
//	group – equivalence on keys deciding which runs of sorted pairs are
//	        passed to a single reduce() invocation.
//
// All three operate on keys only, never values, exactly as in the model.
//
// The engine runs one map task per input partition (m = #partitions) and
// r reduce tasks. Map tasks execute concurrently on goroutines; each map
// task leaves its output partitioned by reduce task and sorted, and
// every reduce task performs a streaming k-way merge of its share,
// tie-breaking equal keys by map task index. This stable merge mirrors
// Hadoop's merge of per-map-task spill files and is load-bearing for
// BlockSplit: its reduce function assumes all values from input
// partition i arrive before those of partition j>i within one key group.
// See DESIGN.md for the full merge/stability model.
//
// Every record holds concrete key/value types end to end (Job[I, K, V, O],
// typed.go) — no interface boxing — and an optional order-preserving
// binary key code (KeyCoding) accelerates sort, merge, and grouping,
// Hadoop-RawComparator-style. The engine is one dataflow over sorted
// runs (dataflow.go): a map task's output is zero or more sorted on-disk
// runs plus an in-memory tail, and one driver, one map-attempt body and
// one reduce-attempt body serve the in-memory run (nothing ever spills),
// the out-of-core run (Engine.SpillBudget) and the distributed run
// (Engine.Remote: the same bodies executed on a worker). Only the run
// store (spill.go) knows where intermediate records reside.
package mapreduce

import (
	"cmp"
	"context"
	"log/slog"
	"slices"
	"sync"

	"repro/internal/obs"
)

// ComparisonsCounter is the user-counter name under which the strategies'
// reduce functions record pair comparisons. It is by far the
// highest-frequency counter (one Inc per candidate pair), so the contexts'
// Inc routes it to a dedicated TaskMetrics field instead of the counter map.
const ComparisonsCounter = "comparisons"

// TaskKind distinguishes map from reduce tasks in metrics.
type TaskKind int

const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskMetrics records the observable work of one task; the cluster
// simulator converts these into simulated execution time.
type TaskMetrics struct {
	Kind          TaskKind
	Index         int
	InputRecords  int64
	InputGroups   int64 // reduce only: number of reduce() invocations
	OutputRecords int64
	// MaxGroupRecords is the largest value list passed to a single
	// reduce() call — the lower bound on the reduce task's in-memory
	// buffering, which is the paper's memory argument against Basic
	// (a whole block per call) and for splitting large blocks.
	MaxGroupRecords int64
	// Comparisons is the ComparisonsCounter value, stored outside the
	// Counters map because it is incremented once per candidate pair.
	Comparisons int64
	Counters    map[string]int64

	// The spill fields are only non-zero when map output left memory
	// (Engine.SpillBudget, Engine.Remote): SpillRuns counts the sorted
	// runs a map task flushed to disk, SpillBytesWritten the run-file
	// bytes it wrote, and SpillBytesRead the run bytes reduce tasks
	// streamed back. They are deliberately excluded from the differential
	// contract — everything else in TaskMetrics must be byte-identical
	// wherever the intermediate records resided.
	SpillRuns         int64
	SpillBytesWritten int64
	SpillBytesRead    int64
}

// Counter returns the named user counter (0 when absent).
func (m *TaskMetrics) Counter(name string) int64 {
	if name == ComparisonsCounter {
		return m.Comparisons
	}
	return m.Counters[name]
}

// Metrics is the execution-metrics part of a job result — what metric
// consumers (the cluster simulator, the experiment harness) read.
type Metrics struct {
	JobName string
	// MapMetrics and ReduceMetrics are indexed by task index.
	MapMetrics    []TaskMetrics
	ReduceMetrics []TaskMetrics
	// MapOutputRecords is the total number of key-value pairs emitted by
	// the map phase — the quantity plotted in Figure 12.
	MapOutputRecords int64

	// Attempt accounting of the fault-tolerance layer (attempt.go).
	// Attempts counts every task attempt started (retries included),
	// Retries the re-executions after a failed attempt. On a fault-free
	// run Attempts == len(MapMetrics) + len(ReduceMetrics) and Retries
	// is zero. Like the TaskMetrics spill counters, both are excluded
	// from the differential contract: they describe how the run
	// executed, not what it computed.
	Attempts int64
	Retries  int64
}

// Counter sums the named user counter over all map and reduce tasks.
func (m *Metrics) Counter(name string) int64 {
	var total int64
	for i := range m.MapMetrics {
		total += m.MapMetrics[i].Counter(name)
	}
	for i := range m.ReduceMetrics {
		total += m.ReduceMetrics[i].Counter(name)
	}
	return total
}

// Engine executes jobs. Parallelism bounds the number of concurrently
// executing tasks per phase; 0 means one goroutine per task. When the
// bound is below a reduce phase's task count, the tasks with the most
// input start first (see forEachTask).
type Engine struct {
	Parallelism int
	// SpillBudget decides where a job's intermediate records reside. 0
	// keeps them in memory: nothing ever spills and the run touches no
	// filesystem. > 0 bounds, in encoded bytes, the map output a task
	// buffers before it flushes a sorted run to disk, and requires a
	// runio codec registered for the job's key and value types; results
	// are byte-identical either way, the TaskMetrics spill counters
	// excepted. Distributed execution (where workers hold map output)
	// ignores it.
	SpillBudget int64
	// TmpDir is where a run that spills (or, under Remote, replicates
	// worker runs) creates its per-run directory ("" = the system temp
	// dir). Both are created at the first spill — a run that never
	// spills never touches TmpDir — and the per-run directory is removed
	// when the run returns, error or not.
	TmpDir string
	// Retry is the task-attempt supervision policy: every map/reduce
	// task runs as a sequence of attempts governed by it (panic
	// recovery, retry with backoff, optional per-attempt timeout). The
	// zero value retries transient failures up to DefaultMaxAttempts
	// with small capped exponential backoff. See RetryPolicy in
	// attempt.go and DESIGN.md ("Fault tolerance").
	Retry RetryPolicy
	// FaultHook, when non-nil, is invoked at the instrumented points of
	// every task attempt (task start, emit, spill, merge — see
	// FaultPoint) and may inject an error to fail the attempt:
	// deterministic fault injection for the chaos differential tests.
	// Nil costs one predictable branch per emit.
	FaultHook FaultHook
	// Remote, when non-nil, dispatches task attempts to worker processes
	// instead of running them in-process (the distributed execution mode
	// — see remote.go and internal/dist). It overrides SpillBudget.
	Remote RemoteDispatcher
	// Obs, when non-nil, enables the observability layer: task-timeline
	// tracing and structured logging (see internal/obs and DESIGN.md
	// "Observability"). Nil disables it entirely; the disabled path
	// costs one nil check per would-be event and never allocates.
	// Durations live only in the trace — TaskMetrics stays
	// deterministic and inside the differential contract.
	Obs *obs.Observer
	// Log receives the engine's rare operational warnings (e.g. the
	// no-workers degradation notice). Nil falls back to Obs.Log, then to
	// slog.Default(). Silence it in tests with obs.Quiet().
	Log *slog.Logger
}

// logger resolves the engine's structured logger: Log, else the
// observer's, else the process default.
func (e *Engine) logger() *slog.Logger {
	if e.Log != nil {
		return e.Log
	}
	return e.Obs.Logger()
}

// beginJob opens the job-level trace span and interns the job name,
// returning the id the run's events carry. No-op (id 0) without an
// observer.
func (e *Engine) beginJob(name string) uint32 {
	o := e.Obs
	if o == nil {
		return 0
	}
	id := o.Tracer.InternJob(name)
	o.Tracer.Record(obs.Event{Type: obs.EvBegin, Kind: obs.KJob, Job: id, Task: -1})
	return id
}

func (e *Engine) endJob(jobID uint32) {
	if o := e.Obs; o != nil {
		o.Tracer.Record(obs.Event{Type: obs.EvEnd, Kind: obs.KJob, Job: jobID, Task: -1})
	}
}

// taskRunner is forEachTask's per-task hook. An interface rather than a
// func value so the supervisor can pass itself by pointer — conversion
// to taskRunner is allocation-free, where a closure per phase is not.
type taskRunner interface {
	runOne(ctx context.Context, task int)
}

// forEachTask runs r.runOne(ctx, i) for i in [0,n) with bounded
// parallelism. Cancellation is prompt between tasks: once ctx is done,
// no further task starts; tasks already executing run to completion and
// every worker goroutine is joined before forEachTask returns, so a
// cancelled phase leaks nothing. The caller detects cancellation via
// ctx.Err().
//
// With fewer workers than tasks and a non-nil weigh, tasks start in
// descending order of weigh(task) instead of in index order (see
// heaviestFirst). One worker runs the tasks in index order regardless:
// the order cannot change how long the phase takes, and it is the order
// in which a streaming sink then sees the committed outputs.
func (e *Engine) forEachTask(ctx context.Context, n int, weigh func(task int) int64, r taskRunner) {
	workers := e.Parallelism
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			r.runOne(ctx, i)
		}
		return
	}
	var order []int
	if weigh != nil && workers < n {
		order = heaviestFirst(n, weigh)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() == nil {
					r.runOne(ctx, i)
				}
			}
		}()
	}
	// The ctx.Done case never fires for a background context (nil
	// channel); otherwise it stops feeding tasks as soon as ctx is done.
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		task := i
		if order != nil {
			task = order[i]
		}
		select {
		case next <- task:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// heaviestFirst returns the tasks [0,n) in descending order of weight,
// equal weights in index order. Reduce phases weigh a task by its input
// records: started in index order, a phase with one dominant task (the
// Basic strategy on skewed blocks) takes that task's time plus that of
// however many lighter tasks the partitioner happened to number before
// it, which depends on nothing but how the dominant key hashes; started
// first, the dominant task overlaps all the others and the phase takes
// its time alone.
func heaviestFirst(n int, weigh func(task int) int64) []int {
	weight := make([]int64, n)
	order := make([]int, n)
	for i := range order {
		weight[i], order[i] = weigh(i), i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weight[b], weight[a]) })
	return order
}

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
// The package provides that model twice:
//
//   - The typed engine (Job[I, K, V, O], the primary API): every record
//     holds concrete key/value types end to end — no interface boxing —
//     and an optional order-preserving binary key code (KeyCoding)
//     accelerates sort, merge, and grouping, Hadoop-RawComparator-style.
//     It is one dataflow over sorted runs (dataflow.go): a map task's
//     output is zero or more sorted on-disk runs plus an in-memory tail,
//     and one driver, one map-attempt body and one reduce-attempt body
//     serve the in-memory run (nothing ever spills), the out-of-core run
//     (Engine.SpillBudget) and the distributed run (Engine.Remote: the
//     same bodies executed on a worker). Only the run store (spill.go)
//     knows where intermediate records reside.
//   - The boxed engine (BoxedJob, Engine.RunContext): the original
//     any-keyed dataflow, kept as the differential oracle. A typed job
//     routes through it unchanged when Engine.Dataflow is DataflowBoxed,
//     so every typed job can be re-executed on the oracle and compared
//     byte-for-byte.
package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"

	"repro/internal/obs"
)

// KeyValue is a single record flowing through the dataflow. Keys may have
// arbitrary structure (the strategies use composite key structs); the
// job's Compare/Group/Partition functions define their semantics.
type KeyValue struct {
	Key   any
	Value any
}

// BoxedMapper is instantiated once per map task. Configure receives the task's
// partition index before any Map call, mirroring Hadoop's
// BoxedMapper.configure — the paper's strategies use it to read the BDM and
// precompute routing tables.
type BoxedMapper interface {
	Configure(m, r, partitionIndex int)
	Map(ctx *BoxedContext, kv KeyValue)
}

// BoxedMapCloser is the boxed counterpart of MapCloser: the optional
// end-of-input hook, called once per attempt after the last Map.
type BoxedMapCloser interface {
	Close(ctx *BoxedContext)
}

// BoxedReducer is instantiated once per reduce task.
type BoxedReducer interface {
	Configure(m, r, taskIndex int)
	// Reduce is called once per key group with the group's first key and
	// all values in merged order. The values slice is only valid for the
	// duration of the call: the engine streams groups out of the shuffle
	// merge through a reused buffer. Implementations that need values
	// beyond the call must copy them.
	Reduce(ctx *BoxedContext, key any, values []KeyValue)
}

// BoxedJob describes one MapReduce job. NewMapper/NewReducer are factories so
// that concurrently executing tasks never share mutable state.
type BoxedJob struct {
	Name string

	// NumReduceTasks is r. The number of map tasks m always equals the
	// number of input partitions passed to Engine.Run.
	NumReduceTasks int

	NewMapper  func() BoxedMapper
	NewReducer func() BoxedReducer

	// Partition implements part: key -> reduce task in [0,r).
	Partition func(key any, numReduceTasks int) int
	// Compare implements comp: total order on keys (-1, 0, +1).
	Compare func(a, b any) int
	// Group implements group: keys a and b belong to the same reduce
	// call iff Group(a,b) == 0. It must be compatible with Compare
	// (groups are runs of the sorted order). When nil, Compare is used.
	Group func(a, b any) int
}

func (j *BoxedJob) validate(numPartitions int) error {
	switch {
	case j.NumReduceTasks <= 0:
		return fmt.Errorf("mapreduce: job %q: NumReduceTasks must be > 0, got %d", j.Name, j.NumReduceTasks)
	case numPartitions <= 0:
		return fmt.Errorf("mapreduce: job %q: need at least one input partition", j.Name)
	case j.NewMapper == nil:
		return fmt.Errorf("mapreduce: job %q: NewMapper is required", j.Name)
	case j.NewReducer == nil:
		return fmt.Errorf("mapreduce: job %q: NewReducer is required", j.Name)
	case j.Partition == nil:
		return fmt.Errorf("mapreduce: job %q: Partition function is required", j.Name)
	case j.Compare == nil:
		return fmt.Errorf("mapreduce: job %q: Compare function is required", j.Name)
	}
	return nil
}

func (j *BoxedJob) group(a, b any) int {
	if j.Group != nil {
		return j.Group(a, b)
	}
	return j.Compare(a, b)
}

// ComparisonsCounter is the user-counter name under which the strategies'
// reduce functions record pair comparisons. It is by far the
// highest-frequency counter (one Inc per candidate pair), so BoxedContext.Inc
// routes it to a dedicated TaskMetrics field instead of the counter map.
const ComparisonsCounter = "comparisons"

// BoxedContext is passed to map and reduce calls for emitting output and
// updating counters. It is owned by a single task attempt; methods are
// not safe for concurrent use by multiple goroutines.
type BoxedContext struct {
	taskKind TaskKind
	taskIdx  int

	out     []KeyValue
	side    []KeyValue
	metrics *TaskMetrics
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends a key-value pair to the task attempt's primary output.
// For map tasks the pair enters the shuffle; for reduce tasks it becomes
// job output once the attempt commits (under RunStream it is drained to
// the run's output sink at commit — the task-commit protocol: a failed
// or superseded attempt never publishes a record).
func (c *BoxedContext) Emit(key, value any) {
	c.hook.fireEmit()
	c.out = append(c.out, KeyValue{Key: key, Value: value})
	c.metrics.OutputRecords++
}

// SideEmit writes to the task's side output, bypassing the shuffle. The
// BDM job uses it for the "additionalOutput" of Algorithm 3: entities
// annotated with their blocking key, written per map task so the second
// job sees the identical input partitioning.
func (c *BoxedContext) SideEmit(key, value any) {
	c.side = append(c.side, KeyValue{Key: key, Value: value})
	c.metrics.SideOutputRecords++
}

// Inc adds delta to the named user counter for this task (e.g., the
// number of pair comparisons performed by a reduce task).
// ComparisonsCounter takes an allocation-free fast path.
func (c *BoxedContext) Inc(name string, delta int64) {
	if name == ComparisonsCounter {
		c.metrics.Comparisons += delta
		return
	}
	m := c.metrics.Counters
	if m == nil {
		// The map is created lazily on the first named counter: most
		// tasks only touch the Comparisons fast path and never pay for
		// the allocation.
		m = make(map[string]int64)
		c.metrics.Counters = m
	}
	m[name] += delta
}

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
	Kind              TaskKind
	Index             int
	InputRecords      int64
	InputGroups       int64 // reduce only: number of reduce() invocations
	OutputRecords     int64
	SideOutputRecords int64
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

// Metrics is the execution-metrics part of a job result. It is shared
// by the typed and boxed engines, so metric consumers (the cluster
// simulator, the experiment harness) work with either dataflow.
type Metrics struct {
	JobName string
	// MapMetrics and ReduceMetrics are indexed by task index.
	MapMetrics    []TaskMetrics
	ReduceMetrics []TaskMetrics
	// MapOutputRecords is the total number of key-value pairs emitted by
	// the map phase — the quantity plotted in Figure 12.
	MapOutputRecords int64

	// Attempt accounting of the fault-tolerance layer (attempt.go).
	// Attempts counts every task attempt started (retries and
	// speculative backups included), Retries the re-executions after a
	// failed attempt, SpeculativeLaunched the backup attempts launched
	// for stragglers, and SpeculativeWon the backups that finished
	// before their originals. On a fault-free, speculation-free run
	// Attempts == len(MapMetrics) + len(ReduceMetrics) and the other
	// three are zero. Like the TaskMetrics spill counters, all four are
	// excluded from the differential contract: they describe how the
	// run executed, not what it computed.
	Attempts            int64
	Retries             int64
	SpeculativeLaunched int64
	SpeculativeWon      int64
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

// BoxedResult is the outcome of a boxed-engine job execution.
type BoxedResult struct {
	Metrics
	// Output contains the concatenated reduce outputs in reduce task
	// order (within a task, in emission order).
	Output []KeyValue
	// SideOutput holds each map task's side output, indexed by map task
	// (= input partition) index.
	SideOutput [][]KeyValue
}

// ShuffleMode selects the reduce-side shuffle implementation.
type ShuffleMode int

const (
	// ShuffleKWayMerge (the default) streams each reduce task's input
	// out of a k-way merge of the pre-sorted per-map-task spill buckets,
	// passing key groups to Reduce without materializing the full task
	// input. Peak reduce memory is O(largest group), not O(task input).
	ShuffleKWayMerge ShuffleMode = iota
	// ShuffleConcatSort concatenates the buckets in map-task order and
	// re-sorts with a stable sort — the original engine's path, kept as
	// the reference oracle for differential tests and benchmarks.
	ShuffleConcatSort
)

// DataflowMode selects the record representation a typed Job runs on.
type DataflowMode int

const (
	// DataflowTyped (the default) executes on the typed engine: concrete
	// key/value types everywhere, optional binary key codes.
	DataflowTyped DataflowMode = iota
	// DataflowBoxed routes a typed Job through the boxed any-based
	// engine via a thin boxing adapter — the differential oracle.
	DataflowBoxed
)

// Engine executes jobs. Parallelism bounds the number of concurrently
// executing tasks per phase; 0 means one goroutine per task. When the
// bound is below a reduce phase's task count, the tasks with the most
// input start first (see forEachTask).
type Engine struct {
	Parallelism int
	// Shuffle selects the reduce-side merge implementation. The zero
	// value is the streaming k-way merge; ShuffleConcatSort is the
	// reference concat+stable-sort path. Both produce byte-identical
	// results (the differential tests prove it). The reference needs
	// every reduce input in memory: combining it with SpillBudget > 0 or
	// Remote is a validation error.
	Shuffle ShuffleMode
	// Dataflow selects the record representation for typed Jobs: the
	// typed engine (the zero value) or the boxed oracle. The boxed
	// engine's own RunContext ignores it.
	Dataflow DataflowMode
	// SpillBudget decides where a typed job's intermediate records
	// reside. 0 keeps them in memory: nothing ever spills and the run
	// touches no filesystem. > 0 bounds, in encoded bytes, the map
	// output a task buffers before it flushes a sorted run to disk, and
	// requires a runio codec registered for the job's key and value
	// types; results are byte-identical either way, the TaskMetrics
	// spill counters excepted. The boxed oracle and distributed
	// execution (where workers hold map output) ignore it.
	SpillBudget int64
	// TmpDir is where a run that spills (or, under Remote, replicates
	// worker runs) creates its per-run directory ("" = the system temp
	// dir). Both are created at the first spill — a run that never
	// spills never touches TmpDir — and the per-run directory is removed
	// when the run returns, error or not.
	TmpDir string
	// Retry is the task-attempt supervision policy: every map/reduce
	// task runs as a sequence of attempts governed by it (panic
	// recovery, retry with backoff, optional per-attempt timeout and
	// speculative straggler re-execution). The zero value retries
	// transient failures up to DefaultMaxAttempts with small capped
	// exponential backoff and no speculation. See RetryPolicy in
	// attempt.go and DESIGN.md ("Fault tolerance").
	Retry RetryPolicy
	// FaultHook, when non-nil, is invoked at the instrumented points of
	// every task attempt (task start, emit, spill, merge — see
	// FaultPoint) and may inject an error to fail the attempt:
	// deterministic fault injection for the chaos differential tests.
	// Nil costs one predictable branch per emit.
	FaultHook FaultHook
	// Remote, when non-nil, dispatches typed task attempts to worker
	// processes instead of running them in-process (the distributed
	// execution mode — see remote.go and internal/dist). It overrides
	// Dataflow and SpillBudget for typed jobs; the boxed engine ignores
	// it.
	Remote RemoteDispatcher
	// Obs, when non-nil, enables the observability layer: task-timeline
	// tracing, engine metrics, and structured logging (see internal/obs
	// and DESIGN.md "Observability"). Nil disables it entirely; the
	// disabled path costs one nil check per would-be event and never
	// allocates. Durations and event counts live only here — TaskMetrics
	// stays deterministic and inside the differential contract.
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

// RunContext executes the job over the given input partitions and
// returns the result. Execution is deterministic: map outputs are
// shuffled with a stable, map-task-ordered merge and sorted with the
// job's Compare. Cancellation is checked between tasks (once ctx is
// done, no further task or attempt starts) and periodically between
// records inside cancellable attempts; RunContext returns an error
// wrapping ctx.Err().
func (e *Engine) RunContext(ctx context.Context, job *BoxedJob, input [][]KeyValue) (*BoxedResult, error) {
	return e.runBoxed(ctx, job, input, nil)
}

func (e *Engine) runBoxed(ctx context.Context, job *BoxedJob, input [][]KeyValue, sink *outputSink[KeyValue]) (*BoxedResult, error) {
	m := len(input)
	if err := job.validate(m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	r := job.NumReduceTasks

	res := &BoxedResult{
		Metrics: Metrics{
			JobName:       job.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
		SideOutput: make([][]KeyValue, m),
	}

	jobID := e.beginJob(job.Name)
	defer e.endJob(jobID)

	// ---- Map phase ----
	// mapOut[mapTask][reduceTask] holds the bucketed map output,
	// published per task by the supervisor's commit step.
	mapOut := make([][][]KeyValue, m)
	mstats, merr := superviseTasks(ctx, e, MapTask, jobID, m, nil,
		func(actx context.Context, hook *taskHook, task, attempt int) (boxedMapOut, error) {
			return e.runMapAttempt(actx, hook, job, task, m, input[task])
		},
		func(task int, out boxedMapOut) error {
			out.metrics.Kind = MapTask
			out.metrics.Index = task
			res.MapMetrics[task] = out.metrics
			res.SideOutput[task] = out.side
			mapOut[task] = out.buckets
			return nil
		},
		func(out boxedMapOut) {},
	)
	res.addStats(mstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	if merr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, merr)
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	// ---- Shuffle + merge + reduce phase ----
	// Reduce tasks run with the same bounded parallelism as map tasks;
	// each task's merge streams groups into Reduce, so merging and
	// reducing overlap within a task and across tasks. Output is
	// buffered per attempt and drained to the sink (or the collected
	// Output) only at commit — the task-commit protocol.
	reduceOut := make([][]KeyValue, r)
	rstats, rerr := superviseTasks(ctx, e, ReduceTask, jobID, r,
		bucketRecords(mapOut),
		func(actx context.Context, hook *taskHook, task, attempt int) (boxedReduceOut, error) {
			return e.runReduceAttempt(actx, hook, job, task, m, mapOut)
		},
		func(task int, out boxedReduceOut) error {
			out.metrics.Kind = ReduceTask
			out.metrics.Index = task
			res.ReduceMetrics[task] = out.metrics
			if sink != nil {
				sink.writeAll(out.out)
				putKVBuf(out.out)
				return nil
			}
			reduceOut[task] = out.out
			return nil
		},
		func(out boxedReduceOut) { putKVBuf(out.out) },
	)
	res.addStats(rstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, rerr)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: output sink: %w", job.Name, err)
		}
	}
	var total int
	for j := range reduceOut {
		total += len(reduceOut[j])
	}
	res.Output = make([]KeyValue, 0, total)
	for j := range reduceOut {
		res.Output = append(res.Output, reduceOut[j]...)
		putKVBuf(reduceOut[j])
	}
	return res, nil
}

// boxedMapOut is one boxed map attempt's private output, published
// atomically when the supervisor commits the attempt.
type boxedMapOut struct {
	buckets [][]KeyValue
	side    []KeyValue
	metrics TaskMetrics
}

// boxedReduceOut is one boxed reduce attempt's private output.
type boxedReduceOut struct {
	out     []KeyValue
	metrics TaskMetrics
}

func (e *Engine) runMapAttempt(actx context.Context, hook *taskHook, job *BoxedJob, idx, m int, input []KeyValue) (mout boxedMapOut, err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return mout, err
	}
	r := job.NumReduceTasks
	ctx := &BoxedContext{taskKind: MapTask, taskIdx: idx, metrics: &mout.metrics, hook: hook}
	ctx.out = getKVBuf()
	mapper := job.NewMapper()
	mapper.Configure(m, r, idx)
	// Attempt cancellation (a losing speculative attempt, a per-attempt
	// timeout) is observed between input records; the gate keeps
	// background-context runs free of per-record checks.
	check := actx.Done() != nil
	for i, kv := range input {
		if check && i&cancelCheckMask == 0 && actx.Err() != nil {
			return mout, actx.Err()
		}
		ctx.metrics.InputRecords++
		mapper.Map(ctx, kv)
	}
	if closer, ok := mapper.(BoxedMapCloser); ok {
		if check && actx.Err() != nil {
			return mout, actx.Err()
		}
		closer.Close(ctx)
	}
	out := ctx.out
	mout.side = ctx.side

	// Bucket by partition: count first, then carve exact-size buckets
	// out of one flat allocation instead of growing r slices.
	parts := getInt32Buf(len(out))
	counts := getInt32Buf(r)
	for i := range counts {
		counts[i] = 0
	}
	for i, kv := range out {
		p := job.Partition(kv.Key, r)
		if p < 0 || p >= r {
			putInt32Buf(parts)
			putInt32Buf(counts)
			return mout, errBadPartition(p, r)
		}
		parts[i] = int32(p)
		counts[p]++
	}
	flat := make([]KeyValue, len(out))
	// Turn counts into running write offsets (counts[p] ends up holding
	// the bucket's end offset).
	next := int32(0)
	for p := 0; p < r; p++ {
		c := counts[p]
		counts[p] = next
		next += c
	}
	for i, kv := range out {
		p := parts[i]
		flat[counts[p]] = kv
		counts[p]++
	}
	buckets := make([][]KeyValue, r)
	start := int32(0)
	for p := 0; p < r; p++ {
		end := counts[p]
		buckets[p] = flat[start:end:end]
		start = end
	}
	putInt32Buf(parts)
	putInt32Buf(counts)
	putKVBuf(out)
	// Sort each bucket now (stable) so the reduce-side k-way merge only
	// has to interleave pre-sorted runs — the Hadoop spill-file model.
	for _, b := range buckets {
		sortKVsStable(b, job.Compare)
	}
	mout.buckets = buckets
	return mout, nil
}

func (e *Engine) runReduceAttempt(actx context.Context, hook *taskHook, job *BoxedJob, idx, m int, mapOut [][][]KeyValue) (rout boxedReduceOut, err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return rout, err
	}
	ctx := &BoxedContext{taskKind: ReduceTask, taskIdx: idx, metrics: &rout.metrics, hook: hook}
	ctx.out = getKVBuf()
	reducer := job.NewReducer()
	reducer.Configure(m, job.NumReduceTasks, idx)

	if e.Shuffle == ShuffleConcatSort {
		// Reference path (the original engine): concatenate the buckets
		// in map-task order and stable-sort the whole input. Kept as the
		// oracle the k-way merge is differentially tested against.
		var input []KeyValue
		for mi := 0; mi < m; mi++ {
			input = append(input, mapOut[mi][idx]...)
		}
		slices.SortStableFunc(input, func(a, b KeyValue) int {
			return job.Compare(a.Key, b.Key)
		})
		ctx.metrics.InputRecords = int64(len(input))
		reduceSortedRun(ctx, job, reducer, input)
		rout.out = ctx.out
		return rout, nil
	}

	// Streaming k-way merge of the pre-sorted spill buckets. Equal keys
	// are popped in map-task order (heap ties break on bucket index),
	// reproducing the concat+stable-sort order exactly.
	if err := hook.fire(FaultMerge); err != nil {
		return rout, err
	}
	runs := getRunsBuf(m)
	total := 0
	for mi := 0; mi < m; mi++ {
		if b := mapOut[mi][idx]; len(b) > 0 {
			runs = append(runs, b)
			total += len(b)
		}
	}
	ctx.metrics.InputRecords = int64(total)
	check := actx.Done() != nil
	switch len(runs) {
	case 0:
	case 1:
		// Single non-empty bucket: it is the task's sorted input; pass
		// group subslices straight through, no copying at all.
		reduceSortedRun(ctx, job, reducer, runs[0])
	default:
		mg := newKVMerger(runs, job.Compare)
		group := getKVBuf()
		kv, _ := mg.next()
		group = append(group, kv)
		for n := 0; ; n++ {
			if check && n&cancelCheckMask == 0 && actx.Err() != nil {
				return rout, actx.Err()
			}
			kv, ok := mg.next()
			if !ok {
				break
			}
			if job.group(group[0].Key, kv.Key) != 0 {
				emitGroup(ctx, reducer, group)
				group = group[:0]
			}
			group = append(group, kv)
		}
		emitGroup(ctx, reducer, group)
		putKVBuf(group)
		mg.release()
	}
	putRunsBuf(runs)
	rout.out = ctx.out
	return rout, nil
}

// reduceSortedRun walks one fully sorted input run and invokes the
// reducer once per key group, updating the group metrics.
func reduceSortedRun(ctx *BoxedContext, job *BoxedJob, reducer BoxedReducer, input []KeyValue) {
	for lo := 0; lo < len(input); {
		hi := lo + 1
		for hi < len(input) && job.group(input[lo].Key, input[hi].Key) == 0 {
			hi++
		}
		emitGroup(ctx, reducer, input[lo:hi])
		lo = hi
	}
}

// emitGroup invokes the reducer for one key group and maintains the
// group metrics.
func emitGroup(ctx *BoxedContext, reducer BoxedReducer, group []KeyValue) {
	ctx.metrics.InputGroups++
	if g := int64(len(group)); g > ctx.metrics.MaxGroupRecords {
		ctx.metrics.MaxGroupRecords = g
	}
	reducer.Reduce(ctx, group[0].Key, group)
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

// bucketRecords weighs a reduce task by the records the map tasks'
// in-memory buckets (mapOut[mapTask][reduceTask]) hold for it.
func bucketRecords[R any](mapOut [][][]R) func(task int) int64 {
	return func(task int) int64 {
		var records int64
		for _, buckets := range mapOut {
			records += int64(len(buckets[task]))
		}
		return records
	}
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

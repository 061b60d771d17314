package mapreduce

import (
	"context"
	"fmt"
	"sync"
)

// This file is the engine's API: the generic, boxing-free realization of
// the execution model described in the package comment. A Job[I, K, V, O]
// fixes four concrete types —
//
//	I – one map-input record,
//	K – the intermediate (shuffle) key,
//	V – the intermediate value,
//	O – one reduce-output record —
//
// so map output, spill buckets, the map-side stable sort, the k-way
// merge heap, and reduce group buffers all hold concrete types with zero
// per-record interface boxing. An optional KeyCoding[K] additionally
// turns most sort/merge/group comparisons into one or two uint64
// compares (see keycode.go). This file is the API; dataflow.go runs it.

// Pair is a plain typed key-value record. It is the input/output record
// shape used throughout the pipeline (e.g. block-id-annotated rows,
// emitted match pairs).
type Pair[K, V any] struct {
	Key   K
	Value V
}

// Rec is one intermediate record in flight between a map task and a
// reduce task: the key/value pair plus the engine-internal binary key
// code (zero when the job has no KeyCoding). Reducers receive group
// value lists as []Rec and should read Key/Value only.
type Rec[K, V any] struct {
	code  Code
	Key   K
	Value V
}

// Mapper is instantiated once per map task. Configure receives the
// task's partition index before any Map call, mirroring Hadoop's
// Mapper.configure — the paper's strategies use it to read the BDM and
// precompute routing tables.
type Mapper[I, K, V any] interface {
	Configure(m, r, partitionIndex int)
	Map(ctx *MapContext[I, K, V], rec I)
}

// MapCloser is the optional end-of-input hook of a Mapper — Hadoop's
// Mapper.close. A mapper that implements it has Close called exactly
// once per attempt, after the last Map call and before the attempt's
// output is sorted, with the context the Map calls received: what it
// emits is map output like any other (counted, spilled, fault-injected
// and panic-recovered the same way). It is how a mapper aggregates over
// its whole partition — the BDM job's per-task count table — where
// Hadoop would run a combiner over the sorted output; the engine has no
// combiner. The hook is optional rather than a Mapper method because
// almost no mapper needs it; the attempt body asserts it once.
type MapCloser[I, K, V any] interface {
	Close(ctx *MapContext[I, K, V])
}

// Reducer is instantiated once per reduce task. Reduce is called once
// per key group with the group's first key and all values in merged
// order. The values slice is only valid for the duration of the call:
// the engine streams groups out of the shuffle merge through a reused
// buffer. Implementations that need values beyond the call must copy
// them.
type Reducer[K, V, O any] interface {
	Configure(m, r, taskIndex int)
	Reduce(ctx *ReduceContext[O], key K, values []Rec[K, V])
}

// Job describes one typed MapReduce job. NewMapper/NewReducer are
// factories so that concurrently executing tasks never share mutable
// state.
type Job[I, K, V, O any] struct {
	Name string

	// NumReduceTasks is r. The number of map tasks m always equals the
	// number of input partitions passed to Run.
	NumReduceTasks int

	NewMapper  func() Mapper[I, K, V]
	NewReducer func() Reducer[K, V, O]

	// Partition implements part: key -> reduce task in [0,r).
	Partition func(key K, numReduceTasks int) int
	// Compare implements comp: total order on keys (-1, 0, +1).
	Compare func(a, b K) int
	// Group implements group: keys a and b belong to the same reduce
	// call iff Group(a,b) == 0. It must be compatible with Compare
	// (groups are runs of the sorted order). When nil, Compare is used.
	Group func(a, b K) int

	// Coding is the optional order-preserving binary key code (see
	// keycode.go). The zero value disables the fast path.
	Coding KeyCoding[K]
}

// JobName returns the job's name (JobRunner).
func (j *Job[I, K, V, O]) JobName() string { return j.Name }

// JobRunner is the type-erased face of a Job: it hides the intermediate
// K and V types so heterogeneous jobs that share input and output record
// types (e.g. the five redistribution strategies) can stand behind one
// interface.
//
// RunContext is the primary entry point; RunStream additionally streams
// reduce output to a callback instead of accumulating it in
// Result.Output — the constant-memory output path.
type JobRunner[I, O any] interface {
	RunContext(ctx context.Context, e *Engine, input [][]I) (*Result[I, O], error)
	RunStream(ctx context.Context, e *Engine, input [][]I, out func(O) error) (*Result[I, O], error)
	JobName() string
}

// outputSink serializes streamed reduce output across concurrently
// executing reduce tasks: records are handed to fn under a mutex, in
// emission order within one reduce task (the order across tasks is the
// tasks' completion interleaving — deterministic only at Parallelism 1).
// The first callback error is sticky: later writes become no-ops and the
// run fails with it after the reduce phase.
type outputSink[O any] struct {
	mu  sync.Mutex
	fn  func(O) error
	err error
}

// writeAll drains one committed reduce attempt's buffered output under a
// single lock acquisition, preserving the attempt's emission order. The
// commit protocol funnels all sink output through here: records of a
// failed attempt never reach the sink.
func (s *outputSink[O]) writeAll(recs []O) {
	s.mu.Lock()
	for i := range recs {
		if s.err != nil {
			break
		}
		s.err = s.fn(recs[i])
	}
	s.mu.Unlock()
}

// Err returns the sticky first write error, if any.
func (s *outputSink[O]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Result is the outcome of a typed job execution.
type Result[I, O any] struct {
	Metrics
	// Output contains the concatenated reduce outputs in reduce task
	// order (within a task, in emission order).
	Output []O
}

// MapContext is passed to map (and close) calls for emitting
// intermediate output and updating counters. It is owned by a single
// task; methods are not safe for concurrent use by multiple goroutines.
type MapContext[I, K, V any] struct {
	metrics *TaskMetrics
	// spill receives every emission: the attempt's map-output buffer,
	// which flushes sorted runs to disk under a finite Engine.SpillBudget
	// and is a plain in-memory append otherwise (see spill.go).
	spill  *spiller[K, V]
	encode func(K) Code
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends an intermediate key-value pair to the task's output,
// computing the key's binary code once if the job has a KeyCoding.
func (c *MapContext[I, K, V]) Emit(key K, value V) {
	c.hook.fireEmit()
	var code Code
	if c.encode != nil {
		code = c.encode(key)
	}
	c.spill.add(Rec[K, V]{code: code, Key: key, Value: value})
	c.metrics.OutputRecords++
}

// Inc adds delta to the named user counter for this task.
// ComparisonsCounter takes an allocation-free fast path.
func (c *MapContext[I, K, V]) Inc(name string, delta int64) {
	incCounter(c.metrics, name, delta)
}

// ReduceContext is passed to reduce calls for emitting output records
// and updating counters.
type ReduceContext[O any] struct {
	metrics *TaskMetrics
	out     []O
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends one record to the attempt's buffered output. Under
// RunStream the buffer is drained to the run's output sink when the
// attempt commits — never earlier, so a failed or retried attempt
// cannot double-emit (the task-commit protocol).
func (c *ReduceContext[O]) Emit(rec O) {
	c.hook.fireEmit()
	c.out = append(c.out, rec)
	c.metrics.OutputRecords++
}

// Inc adds delta to the named user counter for this task.
func (c *ReduceContext[O]) Inc(name string, delta int64) {
	incCounter(c.metrics, name, delta)
}

// incCounter is the contexts' shared counter-update path.
func incCounter(metrics *TaskMetrics, name string, delta int64) {
	if name == ComparisonsCounter {
		metrics.Comparisons += delta
		return
	}
	m := metrics.Counters
	if m == nil {
		// The map is created lazily on the first named counter: most
		// tasks only touch the Comparisons fast path and never pay for
		// the allocation.
		m = make(map[string]int64)
		metrics.Counters = m
	}
	m[name] += delta
}

// MapperFunc adapts plain functions to the Mapper interface.
type MapperFunc[I, K, V any] struct {
	OnConfigure func(m, r, partitionIndex int)
	OnMap       func(ctx *MapContext[I, K, V], rec I)
}

// Configure implements Mapper.
func (f *MapperFunc[I, K, V]) Configure(m, r, partitionIndex int) {
	if f.OnConfigure != nil {
		f.OnConfigure(m, r, partitionIndex)
	}
}

// Map implements Mapper.
func (f *MapperFunc[I, K, V]) Map(ctx *MapContext[I, K, V], rec I) { f.OnMap(ctx, rec) }

// ReducerFunc adapts plain functions to the Reducer interface.
type ReducerFunc[K, V, O any] struct {
	OnConfigure func(m, r, taskIndex int)
	OnReduce    func(ctx *ReduceContext[O], key K, values []Rec[K, V])
}

// Configure implements Reducer.
func (f *ReducerFunc[K, V, O]) Configure(m, r, taskIndex int) {
	if f.OnConfigure != nil {
		f.OnConfigure(m, r, taskIndex)
	}
}

// Reduce implements Reducer.
func (f *ReducerFunc[K, V, O]) Reduce(ctx *ReduceContext[O], key K, values []Rec[K, V]) {
	f.OnReduce(ctx, key, values)
}

func (j *Job[I, K, V, O]) validate(numPartitions int) error {
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
	case j.Coding.Encode == nil && (j.Coding.Exact || j.Coding.GroupBits != 0):
		return fmt.Errorf("mapreduce: job %q: KeyCoding.Exact/GroupBits require an Encode function", j.Name)
	case j.Coding.GroupBits < 0 || j.Coding.GroupBits > 128:
		return fmt.Errorf("mapreduce: job %q: KeyCoding.GroupBits must be in [0,128], got %d", j.Name, j.Coding.GroupBits)
	}
	return nil
}

// RunContext executes the job over the given input partitions and
// returns the result. Execution is deterministic and byte-identical
// wherever the intermediate records reside (in memory, in spilled runs,
// on workers): map outputs are shuffled with a stable, (map task,
// run)-ordered merge and sorted with the job's Compare (accelerated by
// the key code when present).
//
// Cancellation is checked between tasks (once ctx is done, no further
// task or attempt starts) and periodically between records inside
// cancellable attempts; RunContext returns an error wrapping ctx.Err().
// A run that spilled removes its run directory on every exit path,
// cancellation included.
//
// Fault tolerance: every task executes as a sequence of attempts under
// Engine.Retry — panics in user code are recovered into the attempt's
// error and transient failures retry with backoff. A run that fails
// despite retries returns an error wrapping a *TaskError. See DESIGN.md ("Fault tolerance").
func (j *Job[I, K, V, O]) RunContext(ctx context.Context, e *Engine, input [][]I) (*Result[I, O], error) {
	return j.run(ctx, e, input, nil)
}

// RunStream is RunContext with streamed output: each reduce task's
// emissions are handed to out when the task commits (serialized across
// tasks, emission order within a task) instead of being accumulated in
// Result.Output, so peak memory is O(largest task's output) — the
// commit protocol's price for never double-emitting under retries —
// rather than O(total output). A non-nil error from out
// fails the run. Metrics are identical to RunContext.
func (j *Job[I, K, V, O]) RunStream(ctx context.Context, e *Engine, input [][]I, out func(O) error) (*Result[I, O], error) {
	if out == nil {
		return j.run(ctx, e, input, nil)
	}
	return j.run(ctx, e, input, &outputSink[O]{fn: out})
}

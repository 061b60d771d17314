package mapreduce

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// This file is the typed engine: the generic, boxing-free realization of
// the execution model described in the package comment. A Job[I, K, V, O]
// fixes four concrete types —
//
//	I – one map-input record (and, by convention, one side-output
//	    record: SideEmit writes records of the input type so a
//	    pipeline's next job can consume SideOutput as its input),
//	K – the intermediate (shuffle) key,
//	V – the intermediate value,
//	O – one reduce-output record —
//
// so map output, spill buckets, the map-side stable sort, the k-way
// merge heap, and reduce group buffers all hold concrete types with zero
// per-record interface boxing. An optional KeyCoding[K] additionally
// turns most sort/merge/group comparisons into one or two uint64
// compares (see keycode.go).

// Pair is a plain typed key-value record. It is the input/output record
// shape used throughout the pipeline (e.g. blocking-key-annotated
// entities, emitted match pairs).
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

// Mapper is the typed counterpart of BoxedMapper, instantiated once per
// map task. Configure receives the task's partition index before any Map
// call, mirroring Hadoop's Mapper.configure.
type Mapper[I, K, V any] interface {
	Configure(m, r, partitionIndex int)
	Map(ctx *MapContext[I, K, V], rec I)
}

// Reducer is the typed counterpart of BoxedReducer, instantiated once
// per reduce task. Reduce is called once per key group with the group's
// first key and all values in merged order. The values slice is only
// valid for the duration of the call: the engine streams groups out of
// the shuffle merge through a reused buffer. Implementations that need
// values beyond the call must copy them.
type Reducer[K, V, O any] interface {
	Configure(m, r, taskIndex int)
	Reduce(ctx *ReduceContext[O], key K, values []Rec[K, V])
}

// Combiner runs over each map task's output before the shuffle, grouped
// with the same Group/Compare as the reduce side, re-emitting
// intermediate (K, V) pairs — the standard Hadoop combiner optimization.
type Combiner[I, K, V any] interface {
	Configure(m, r, taskIndex int)
	Combine(ctx *MapContext[I, K, V], key K, values []Rec[K, V])
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

	// NewCombiner, when non-nil, enables the map-side combiner.
	NewCombiner func() Combiner[I, K, V]

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
// RunContext is the primary entry point; Run is the pre-context adapter
// (kept for one release of compatibility) and RunStream additionally
// streams reduce output to a callback instead of accumulating it in
// Result.Output — the constant-memory output path.
type JobRunner[I, O any] interface {
	Run(e *Engine, input [][]I) (*Result[I, O], error)
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
// failed or superseded attempt never reach the sink.
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
	// SideOutput holds each map task's side output, indexed by map task
	// (= input partition) index. Side records have the input type I so a
	// follow-up job can consume them as its partitioned input.
	SideOutput [][]I
}

// MapContext is passed to map (and combine) calls for emitting
// intermediate output and updating counters. It is owned by a single
// task; methods are not safe for concurrent use by multiple goroutines.
type MapContext[I, K, V any] struct {
	metrics *TaskMetrics
	out     []Rec[K, V]
	side    []I
	// sideCap sizes the side-output buffer on first use: side emitters
	// (the BDM job) write at most one record per input record, so the
	// task's input size is an exact upper bound and the buffer never
	// regrows.
	sideCap int
	encode  func(K) Code
	// boxed, when non-nil, redirects all emissions and counters through
	// the boxed oracle context (see oracle.go).
	boxed *BoxedContext
	// spill, when non-nil, redirects emissions into the external
	// dataflow's spiller instead of the in-memory out buffer (see
	// external.go).
	spill *extSpiller[K, V]
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends an intermediate key-value pair to the task's output,
// computing the key's binary code once if the job has a KeyCoding.
func (c *MapContext[I, K, V]) Emit(key K, value V) {
	if c.boxed != nil {
		c.boxed.Emit(key, value)
		return
	}
	c.hook.fireEmit()
	var code Code
	if c.encode != nil {
		code = c.encode(key)
	}
	if c.spill != nil {
		c.spill.add(Rec[K, V]{code: code, Key: key, Value: value})
		c.metrics.OutputRecords++
		return
	}
	c.out = append(c.out, Rec[K, V]{code: code, Key: key, Value: value})
	c.metrics.OutputRecords++
}

// SideEmit writes a record of the input type to the task's side output,
// bypassing the shuffle. The BDM job uses it for the "additionalOutput"
// of Algorithm 3: blocking-key-annotated entities, written per map task
// so the second job sees the identical input partitioning.
func (c *MapContext[I, K, V]) SideEmit(rec I) {
	if c.boxed != nil {
		c.boxed.SideEmit(rec, nil)
		return
	}
	if c.side == nil && c.sideCap > 0 {
		c.side = make([]I, 0, c.sideCap)
	}
	c.side = append(c.side, rec)
	c.metrics.SideOutputRecords++
}

// Inc adds delta to the named user counter for this task.
// ComparisonsCounter takes an allocation-free fast path.
func (c *MapContext[I, K, V]) Inc(name string, delta int64) {
	if c.boxed != nil {
		c.boxed.Inc(name, delta)
		return
	}
	incCounter(c.metrics, name, delta)
}

// ReduceContext is passed to reduce calls for emitting output records
// and updating counters.
type ReduceContext[O any] struct {
	metrics *TaskMetrics
	out     []O
	boxed   *BoxedContext
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends one record to the attempt's buffered output. Under
// RunStream the buffer is drained to the run's output sink when the
// attempt commits — never earlier, so a failed, retried, or superseded
// attempt cannot double-emit (the task-commit protocol).
func (c *ReduceContext[O]) Emit(rec O) {
	if c.boxed != nil {
		c.boxed.Emit(rec, nil)
		return
	}
	c.hook.fireEmit()
	c.out = append(c.out, rec)
	c.metrics.OutputRecords++
}

// Inc adds delta to the named user counter for this task.
func (c *ReduceContext[O]) Inc(name string, delta int64) {
	if c.boxed != nil {
		c.boxed.Inc(name, delta)
		return
	}
	incCounter(c.metrics, name, delta)
}

// incCounter is the shared counter-update path (mirrors BoxedContext.Inc).
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

// Run executes the job over the given input partitions and returns the
// result — the pre-context adapter over RunContext, kept for one release
// of compatibility.
func (j *Job[I, K, V, O]) Run(e *Engine, input [][]I) (*Result[I, O], error) {
	//erlint:ignore ctxflow pre-context compatibility adapter: callers without a context start at a fresh root here
	return j.RunContext(context.Background(), e, input)
}

// RunContext executes the job over the given input partitions and
// returns the result. Execution is deterministic and byte-identical
// across the typed/boxed × k-way/concat-sort engine variants: map
// outputs are shuffled with a stable, map-task-ordered merge and sorted
// with the job's Compare (accelerated by the key code when present).
// When e.Dataflow is DataflowBoxed, the job runs on the boxed oracle
// engine through the boxing adapter in oracle.go instead.
//
// Cancellation is checked between tasks (once ctx is done, no further
// task or attempt starts) and periodically between records inside
// cancellable attempts; RunContext returns an error wrapping ctx.Err().
// The external dataflow removes its spill directory on every exit path,
// cancellation included.
//
// Fault tolerance: every task executes as a sequence of attempts under
// Engine.Retry — panics in user code are recovered into the attempt's
// error, transient failures retry with backoff, and stragglers can be
// speculatively re-executed. A run that fails despite retries returns
// an error wrapping a *TaskError. See DESIGN.md ("Fault tolerance").
func (j *Job[I, K, V, O]) RunContext(ctx context.Context, e *Engine, input [][]I) (*Result[I, O], error) {
	return j.run(ctx, e, input, nil)
}

// RunStream is RunContext with streamed output: each reduce task's
// emissions are handed to out when the task commits (serialized across
// tasks, emission order within a task) instead of being accumulated in
// Result.Output, so peak memory is O(largest task's output) — the
// commit protocol's price for never double-emitting under retries and
// speculation — rather than O(total output). A non-nil error from out
// fails the run. Metrics and side output are identical to RunContext.
func (j *Job[I, K, V, O]) RunStream(ctx context.Context, e *Engine, input [][]I, out func(O) error) (*Result[I, O], error) {
	if out == nil {
		return j.run(ctx, e, input, nil)
	}
	return j.run(ctx, e, input, &outputSink[O]{fn: out})
}

func (j *Job[I, K, V, O]) run(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m := len(input)
	if err := j.validate(m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if e.Remote != nil {
		return j.runRemote(ctx, e, input, sink)
	}
	switch e.Dataflow {
	case DataflowBoxed:
		return j.runBoxed(ctx, e, input, sink)
	case DataflowExternal:
		return j.runExternal(ctx, e, input, sink)
	}
	r := j.NumReduceTasks

	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
		SideOutput: make([][]I, m),
	}
	st := newRunState(j)
	st.limiter = newSortLimiter(e.Parallelism)
	jobID := e.beginJob(j.Name)
	defer e.endJob(jobID)
	st.obs, st.jobID = e.Obs, jobID

	// ---- Map phase ----
	// mapOut[mapTask][reduceTask] holds the bucketed map output; the
	// buckets of one task are carved out of the single backing array in
	// mapFlat[mapTask], which is recycled once the reduce phase is done.
	// Both are published per task by the supervisor's commit step.
	mapOut := make([][][]Rec[K, V], m)
	mapFlat := make([][]Rec[K, V], m)
	st.mapPhase = typedMapPhase[I, K, V, O]{st: st, input: input, m: m, res: res, mapOut: mapOut, mapFlat: mapFlat}
	st.mapSup.init(e, MapTask, jobID, &st.mapPhase)
	mstats, merr := st.mapSup.supervise(ctx, m)
	res.addStats(mstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if merr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, merr)
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	// ---- Shuffle + merge + reduce phase ----
	// Output is buffered per attempt and drained to the sink (or the
	// collected Output) only at commit — the task-commit protocol.
	reduceOut := make([][]O, r)
	st.redPhase = typedReducePhase[I, K, V, O]{st: st, e: e, m: m, res: res, mapOut: mapOut, sink: sink, reduceOut: reduceOut}
	st.redSup.init(e, ReduceTask, jobID, &st.redPhase)
	st.redSup.weigh = bucketRecords(mapOut)
	rstats, rerr := st.redSup.supervise(ctx, r)
	res.addStats(rstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, rerr)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: output sink: %w", j.Name, err)
		}
	}
	var total int
	for jj := range reduceOut {
		total += len(reduceOut[jj])
	}
	res.Output = make([]O, 0, total)
	for jj := range reduceOut {
		res.Output = append(res.Output, reduceOut[jj]...)
		putOutBuf(st.outPool, reduceOut[jj])
	}
	// The spill buckets are dead now that every reduce task has drained
	// them; recycle their backing arrays (putRecBuf clears the records,
	// so pooled buffers never pin keys or values).
	for _, flat := range mapFlat {
		st.pools.putRecBuf(flat)
	}
	return res, nil
}

// typedMapOut is one typed map attempt's private output, published
// atomically when the supervisor commits the attempt.
type typedMapOut[I, K, V any] struct {
	buckets [][]Rec[K, V]
	flat    []Rec[K, V]
	side    []I
	metrics TaskMetrics
}

// typedReduceOut is one typed reduce attempt's private output.
type typedReduceOut[O any] struct {
	out     []O
	metrics TaskMetrics
}

// typedMapPhase is the map phase's taskOps: run one map attempt,
// publish its buckets, side output, and metrics at commit.
type typedMapPhase[I, K, V, O any] struct {
	st      *runState[I, K, V, O]
	input   [][]I
	m       int
	res     *Result[I, O]
	mapOut  [][][]Rec[K, V]
	mapFlat [][]Rec[K, V]
}

func (p *typedMapPhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (typedMapOut[I, K, V], error) {
	return p.st.runMapAttempt(actx, hook, task, p.m, p.input[task])
}

func (p *typedMapPhase[I, K, V, O]) commitTask(task int, out typedMapOut[I, K, V]) error {
	out.metrics.Kind = MapTask
	out.metrics.Index = task
	p.res.MapMetrics[task] = out.metrics
	p.res.SideOutput[task] = out.side
	p.mapOut[task], p.mapFlat[task] = out.buckets, out.flat
	return nil
}

func (p *typedMapPhase[I, K, V, O]) discardOut(out typedMapOut[I, K, V]) {
	p.st.pools.putRecBuf(out.flat)
}

// typedReducePhase is the reduce phase's taskOps. Output is buffered
// per attempt and drained to the sink (or the collected Output) only at
// commit — the task-commit protocol.
type typedReducePhase[I, K, V, O any] struct {
	st        *runState[I, K, V, O]
	e         *Engine
	m         int
	res       *Result[I, O]
	mapOut    [][][]Rec[K, V]
	sink      *outputSink[O]
	reduceOut [][]O
}

func (p *typedReducePhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (typedReduceOut[O], error) {
	return p.st.runReduceAttempt(actx, hook, p.e, task, attempt, p.m, p.mapOut)
}

func (p *typedReducePhase[I, K, V, O]) commitTask(task int, out typedReduceOut[O]) error {
	out.metrics.Kind = ReduceTask
	out.metrics.Index = task
	p.res.ReduceMetrics[task] = out.metrics
	if p.sink != nil {
		p.sink.writeAll(out.out)
		putOutBuf(p.st.outPool, out.out)
		return nil
	}
	p.reduceOut[task] = out.out
	return nil
}

func (p *typedReducePhase[I, K, V, O]) discardOut(out typedReduceOut[O]) {
	putOutBuf(p.st.outPool, out.out)
}

// runState carries the per-run comparator/group fast paths and the
// process-wide pooled scratch buffers of the job's (K, V) types.
type runState[I, K, V, O any] struct {
	job    *Job[I, K, V, O]
	encode func(K) Code
	exact  bool
	gbits  int
	group  func(a, b K) int

	pools   *recPools[K, V]
	outPool *slicePool[O] // pooled []O reduce-output buffers

	// cmp is cmpRec bound once per run so the sort machinery receives a
	// stable func value instead of allocating a method closure per call.
	cmp func(a, b *Rec[K, V]) int
	// limiter bounds the extra goroutines all of this run's sorts may
	// spawn (nil = serial). Sized from Engine.Parallelism by run /
	// runExternal; other paths (boxed, remote) never sort Recs.
	limiter *sortLimiter

	// obs/jobID carry the run's observability identity into the attempt
	// runners (merge spans). nil/0 when observability is off — including
	// always on the worker side of remote execution, where tracing
	// happens at the dist layer instead.
	obs   *obs.Observer
	jobID uint32

	// Supervision state for the two phases, embedded so the fault-free
	// fast path allocates nothing per phase: &st.mapPhase converts to
	// taskOps without boxing, and the supervisors live in this one
	// allocation instead of one per phase.
	mapPhase typedMapPhase[I, K, V, O]
	mapSup   taskSupervisor[typedMapOut[I, K, V]]
	redPhase typedReducePhase[I, K, V, O]
	redSup   taskSupervisor[typedReduceOut[O]]
}

func newRunState[I, K, V, O any](j *Job[I, K, V, O]) *runState[I, K, V, O] {
	st := &runState[I, K, V, O]{
		job:     j,
		encode:  j.Coding.Encode,
		exact:   j.Coding.Exact,
		gbits:   j.Coding.GroupBits,
		group:   j.Group,
		pools:   poolFor[K, V](),
		outPool: outPoolFor[O](),
	}
	if st.group == nil {
		st.group = j.Compare
	}
	st.cmp = st.cmpRec
	return st
}

// cmpRec is the record comparator of the spill sort and the merge heap:
// binary codes first, the struct comparator only on code ties (never,
// for exact codings).
func (st *runState[I, K, V, O]) cmpRec(a, b *Rec[K, V]) int {
	if st.encode != nil {
		if c := a.code.Cmp(b.code); c != 0 {
			return c
		}
		if st.exact {
			return 0
		}
	}
	return st.job.Compare(a.Key, b.Key)
}

// sameGroup decides whether two (sort-adjacent) records belong to the
// same reduce call: by code prefix when the coding declares group bits,
// by the Group function otherwise.
func (st *runState[I, K, V, O]) sameGroup(a, b *Rec[K, V]) bool {
	if st.gbits > 0 {
		return a.code.prefixEqual(b.code, st.gbits)
	}
	return st.group(a.Key, b.Key) == 0
}

func (st *runState[I, K, V, O]) runMapAttempt(actx context.Context, hook *taskHook, idx, m int, input []I) (mout typedMapOut[I, K, V], err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return mout, err
	}
	j := st.job
	r := j.NumReduceTasks
	metrics := &mout.metrics
	ctx := &MapContext[I, K, V]{metrics: metrics, encode: st.encode, out: st.pools.getRecBuf(), sideCap: len(input), hook: hook}
	mapper := j.NewMapper()
	mapper.Configure(m, r, idx)
	// Attempt cancellation (a losing speculative attempt, a per-attempt
	// timeout) is observed between input records; the gate keeps
	// background-context runs free of per-record checks.
	check := actx.Done() != nil
	for i := range input {
		if check && i&cancelCheckMask == 0 && actx.Err() != nil {
			return mout, actx.Err()
		}
		metrics.InputRecords++
		mapper.Map(ctx, input[i])
	}
	out := ctx.out
	if j.NewCombiner != nil {
		combined, cerr := st.combine(idx, m, out, metrics, hook)
		if cerr != nil {
			return mout, cerr
		}
		st.pools.putRecBuf(out)
		out = combined
		// The combiner rewrote the task's output; fix the metric.
		metrics.OutputRecords = int64(len(out))
	}
	mout.side = ctx.side
	mout.buckets, mout.flat, err = st.partitionAndSort(out)
	return mout, err
}

// partitionAndSort buckets one map task's (possibly combined) output by
// partition and stable-sorts each bucket — the in-memory spill step.
// It takes ownership of out (the buffer is recycled); the returned flat
// backing array must be recycled by the caller once the reduce phase
// has drained the buckets.
func (st *runState[I, K, V, O]) partitionAndSort(out []Rec[K, V]) (buckets [][]Rec[K, V], flat []Rec[K, V], err error) {
	j := st.job
	r := j.NumReduceTasks
	// Bucket by partition: count first, then carve exact-size buckets
	// out of one flat allocation instead of growing r slices.
	parts := getInt32Buf(len(out))
	counts := getInt32Buf(r)
	for i := range counts {
		counts[i] = 0
	}
	for i := range out {
		p := j.Partition(out[i].Key, r)
		if p < 0 || p >= r {
			putInt32Buf(parts)
			putInt32Buf(counts)
			// A deterministic user-logic bug: re-running cannot fix it.
			return nil, nil, Fatal(fmt.Errorf("partition function returned %d for %d reduce tasks", p, r))
		}
		parts[i] = int32(p)
		counts[p]++
	}
	// The buckets' shared backing array comes from the record pool (a
	// previous run's spill array, recycled at the end of Run).
	flat = st.pools.getRecBuf()
	if cap(flat) < len(out) {
		flat = make([]Rec[K, V], len(out))
	}
	flat = flat[:len(out)]
	// Turn counts into running write offsets (counts[p] ends up holding
	// the bucket's end offset).
	next := int32(0)
	for p := 0; p < r; p++ {
		c := counts[p]
		counts[p] = next
		next += c
	}
	for i := range out {
		p := parts[i]
		flat[counts[p]] = out[i]
		counts[p]++
	}
	buckets = make([][]Rec[K, V], r)
	start := int32(0)
	for p := 0; p < r; p++ {
		end := counts[p]
		buckets[p] = flat[start:end:end]
		start = end
	}
	putInt32Buf(parts)
	putInt32Buf(counts)
	st.pools.putRecBuf(out)
	// Sort each bucket now (stable) so the reduce-side k-way merge only
	// has to interleave pre-sorted runs — the Hadoop spill-file model.
	// Buckets spread across the run's free sort workers.
	st.sortBuckets(buckets)
	return buckets, flat, nil
}

// combine runs the job's combiner over one map task's output, grouped
// exactly like the reduce side would group it.
func (st *runState[I, K, V, O]) combine(idx, m int, out []Rec[K, V], metrics *TaskMetrics, hook *taskHook) ([]Rec[K, V], error) {
	st.sortRecsStable(out)
	combiner := st.job.NewCombiner()
	combiner.Configure(m, st.job.NumReduceTasks, idx)
	cctx := &MapContext[I, K, V]{metrics: metrics, encode: st.encode, out: st.pools.getRecBuf(), hook: hook}
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && st.sameGroup(&out[lo], &out[hi]) {
			hi++
		}
		combiner.Combine(cctx, out[lo].Key, out[lo:hi])
		lo = hi
	}
	return cctx.out, nil
}

func (st *runState[I, K, V, O]) runReduceAttempt(actx context.Context, hook *taskHook, e *Engine, idx, attempt, m int, mapOut [][][]Rec[K, V]) (rout typedReduceOut[O], err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return rout, err
	}
	j := st.job
	metrics := &rout.metrics
	ctx := &ReduceContext[O]{metrics: metrics, out: getOutBuf[O](st.outPool), hook: hook}
	reducer := j.NewReducer()
	reducer.Configure(m, j.NumReduceTasks, idx)

	if e.Shuffle == ShuffleConcatSort {
		// Reference path: concatenate the buckets in map-task order and
		// stable-sort the whole input (the pre-sorted buckets make this
		// redundant work — that is the point of the oracle).
		var input []Rec[K, V]
		for mi := 0; mi < m; mi++ {
			input = append(input, mapOut[mi][idx]...)
		}
		st.sortRecsStable(input)
		metrics.InputRecords = int64(len(input))
		st.reduceSortedRun(ctx, reducer, input)
		rout.out = ctx.out
		return rout, nil
	}

	// Streaming k-way merge of the pre-sorted spill buckets. Equal keys
	// are popped in map-task order (heap ties break on bucket index),
	// reproducing the concat+stable-sort order exactly.
	if err := hook.fire(FaultMerge); err != nil {
		return rout, err
	}
	runs := st.pools.getRunsBuf(m)
	total := 0
	for mi := 0; mi < m; mi++ {
		if b := mapOut[mi][idx]; len(b) > 0 {
			runs = append(runs, b)
			total += len(b)
		}
	}
	metrics.InputRecords = int64(total)
	if st.obs != nil {
		st.recordMerge(obs.EvBegin, obs.PhaseReduce, idx, attempt, int64(total))
		defer st.recordMerge(obs.EvEnd, obs.PhaseReduce, idx, attempt, int64(total))
	}
	check := actx.Done() != nil
	switch len(runs) {
	case 0:
	case 1:
		// Single non-empty bucket: it is the task's sorted input; pass
		// group subslices straight through, no copying at all.
		st.reduceSortedRun(ctx, reducer, runs[0])
	default:
		mg := newRecMerger(st, runs)
		group := st.pools.getRecBuf()
		rec, _ := mg.next()
		group = append(group, rec)
		for n := 0; ; n++ {
			if check && n&cancelCheckMask == 0 && actx.Err() != nil {
				return rout, actx.Err()
			}
			rec, ok := mg.next()
			if !ok {
				break
			}
			if !st.sameGroup(&group[0], &rec) {
				st.emitGroup(ctx, reducer, group)
				group = group[:0]
			}
			group = append(group, rec)
		}
		st.emitGroup(ctx, reducer, group)
		st.pools.putRecBuf(group)
	}
	st.pools.putRunsBuf(runs)
	rout.out = ctx.out
	return rout, nil
}

// recordMerge emits a merge-span event carrying the run's job identity.
// Callers guard on st.obs.
func (st *runState[I, K, V, O]) recordMerge(typ obs.EventType, phase uint8, task, attempt int, arg int64) {
	st.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KMerge, Phase: phase, Job: st.jobID,
		Task: int32(task), Attempt: int32(attempt), Arg: arg,
	})
}

// reduceSortedRun walks one fully sorted input run and invokes the
// reducer once per key group, updating the group metrics.
func (st *runState[I, K, V, O]) reduceSortedRun(ctx *ReduceContext[O], reducer Reducer[K, V, O], input []Rec[K, V]) {
	for lo := 0; lo < len(input); {
		hi := lo + 1
		for hi < len(input) && st.sameGroup(&input[lo], &input[hi]) {
			hi++
		}
		st.emitGroup(ctx, reducer, input[lo:hi])
		lo = hi
	}
}

// emitGroup invokes the reducer for one key group and maintains the
// group metrics.
func (st *runState[I, K, V, O]) emitGroup(ctx *ReduceContext[O], reducer Reducer[K, V, O], group []Rec[K, V]) {
	ctx.metrics.InputGroups++
	if g := int64(len(group)); g > ctx.metrics.MaxGroupRecords {
		ctx.metrics.MaxGroupRecords = g
	}
	reducer.Reduce(ctx, group[0].Key, group)
}

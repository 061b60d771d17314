package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/runio"
)

// This file is the engine's distributed-execution seam, selected by
// Engine.Remote: the same driver, supervisor and attempt bodies as a
// local run (dataflow.go), with each attempt dispatched instead of run
// here — so retries, backoff, timeouts and the task-commit protocol
// apply unchanged to tasks that execute in another process. The worker
// side runs the one map-attempt body in memory (RemoteRunnable wraps a
// concrete Job) and hands its output back as a single sorted ERN1 run
// file, which a reduce attempt merges like any other run — so
// distributed results inherit the in-memory≡spilled byte-identity
// proof. See DESIGN.md ("Distributed runtime").
//
// Division of labor with internal/dist: this file defines the
// process-agnostic contract (dispatcher interface, wire-free executor
// entry points, record blobs); dist implements the HTTP control plane,
// worker registry, heartbeats, and run serving on top of it.

// ErrNoWorkers is returned by a RemoteDispatcher when no live worker is
// available to run an attempt. The driver reacts by degrading that
// attempt to local execution with a logged warning instead of failing
// the job — the bottom rung of the degradation ladder.
var ErrNoWorkers = errors.New("mapreduce: no live workers")

// RemoteMapResult is a completed remote map attempt as the driver sees
// it: the run's segment index (Path pointing at the master-local
// replica the dispatcher fetched), the worker URL the run can also be
// range-read from, and the attempt's metrics. A map attempt's output is
// its run and nothing else.
type RemoteMapResult struct {
	// Info describes the attempt's ERN1 run file; Info.Path must name a
	// file readable by this process (the dispatcher's replica).
	Info *runio.Info
	// Origin is the worker's run-serving URL ("" when the run only
	// exists locally). Reducers prefer it and fall back to the replica.
	Origin  string
	Metrics TaskMetrics
}

// RemoteReduceResult is a completed remote reduce attempt: the emitted
// output as a record blob plus the attempt's metrics.
type RemoteReduceResult struct {
	Output      []byte
	OutputCount int
	Metrics     TaskMetrics
}

// RemoteRun locates one committed map task's run for the reduce phase.
type RemoteRun struct {
	MapTask int
	// Path is the master-local replica file.
	Path string
	// Origin is the worker's run URL ("" when the run was produced by
	// local degradation and only the replica exists).
	Origin string
	Info   *runio.Info
}

// RemoteDispatcher executes task attempts on remote workers. The engine
// calls it once per attempt from supervised task goroutines; it must be
// safe for concurrent use. Error contract:
//
//   - ErrNoWorkers (wrapped or not) makes the driver run the attempt
//     locally with a logged warning;
//   - an error wrapped with Fatal fails the task immediately;
//   - any other error fails only the attempt, and the RetryPolicy
//     decides on re-dispatch (typically landing on another worker).
type RemoteDispatcher interface {
	// RunMapAttempt dispatches one map attempt: input is inputCount
	// records encoded with the job's input codec. On success the
	// attempt's run file must be readable at replicaPath.
	RunMapAttempt(ctx context.Context, m, task, attempt int, input []byte, inputCount int, replicaPath string) (*RemoteMapResult, error)
	// RunReduceAttempt dispatches one reduce attempt over the committed
	// map runs (indexed by map task, all m present).
	RunReduceAttempt(ctx context.Context, m, task, attempt int, runs []RemoteRun) (*RemoteReduceResult, error)
}

// RemoteRunnable is the type-erased worker-side face of a typed Job:
// it executes single attempts from encoded inputs, so a worker process
// can run jobs whose concrete type parameters it does not know
// (internal/dist builds them through registered constructors).
type RemoteRunnable interface {
	JobName() string
	// ExecRemoteMap runs one map attempt over the decoded input blob and
	// writes the attempt's entire sorted output as one ERN1 run at
	// runPath. The result's Origin is left empty — serving is the
	// caller's concern.
	ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error)
	// ExecRemoteReduce runs one reduce attempt over the map tasks' run
	// segments, given in map-task order (zero-record segments may be
	// included; they contribute nothing).
	ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error)
}

// NewRemoteRunnable wraps a typed job for worker-side execution. It
// fails when any of the job's four record types lacks a runio codec —
// the requirement spilling has for K and V, extended to I and O because
// inputs and outputs cross the process boundary.
func NewRemoteRunnable[I, K, V, O any](j *Job[I, K, V, O]) (RemoteRunnable, error) {
	st := newRunState(j)
	if err := st.bindWireCodecs(); err != nil {
		return nil, err
	}
	return remoteRunnable[I, K, V, O]{st}, nil
}

// remoteRunnable runs attempts on a run state with no engine behind it:
// a worker has no spill budget, directory or observer of its own.
type remoteRunnable[I, K, V, O any] struct{ st *runState[I, K, V, O] }

func (rr remoteRunnable[I, K, V, O]) JobName() string { return rr.st.job.Name }

func (rr remoteRunnable[I, K, V, O]) ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error) {
	if err := rr.st.job.validate(m); err != nil {
		return nil, Fatal(err)
	}
	recs, err := DecodeRecords(rr.st.ic, input, inputCount)
	if err != nil {
		return nil, fmt.Errorf("map task %d input: %w", task, err)
	}
	return rr.st.execMapToRun(ctx, nil, task, attempt, m, recs, runPath)
}

func (rr remoteRunnable[I, K, V, O]) ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error) {
	st := rr.st
	if err := st.job.validate(m); err != nil {
		return nil, Fatal(err)
	}
	inputs := make([]reduceInput[K, V], len(sources))
	for i, s := range sources {
		inputs[i].SegmentSource = s
	}
	rout, err := st.runReduceAttempt(ctx, nil, task, attempt, m, inputs)
	if err != nil {
		return nil, err
	}
	res := &RemoteReduceResult{Output: EncodeRecords(st.oc, rout.out), OutputCount: len(rout.out), Metrics: rout.metrics}
	putOutBuf(st.outPool, rout.out)
	return res, nil
}

// execMapToRun runs one map attempt in memory and hands its bucketed,
// sorted output back the way the distributed run carries map output: as
// a single ERN1 run file — the shared implementation of the worker-side
// executor and the master's local degradation path. The run counters it
// sets (one run, its file bytes) are execution history, outside the
// differential contract.
func (st *runState[I, K, V, O]) execMapToRun(actx context.Context, hook *taskHook, task, attempt, m int, input []I, runPath string) (*RemoteMapResult, error) {
	mout, err := st.runMapAttempt(actx, hook, task, attempt, m, input)
	if err != nil {
		return nil, err
	}
	info, err := st.writeRun(runPath, mout.buckets)
	mout.release(st.pools)
	if err != nil {
		return nil, err
	}
	mout.metrics.SpillRuns++
	mout.metrics.SpillBytesWritten += info.FileBytes
	return &RemoteMapResult{Info: info, Metrics: mout.metrics}, nil
}

// The master side. Map and reduce attempts go through the dispatcher
// under the same supervisor as local attempts: its retry loop is the
// reassignment machinery (a dead worker's dispatch error is just a
// failed attempt), and committed runs are never recomputed — the replica
// the dispatcher fetched at map commit outlives the worker that produced
// it. When the dispatcher reports ErrNoWorkers, the attempt degrades to
// local execution with a logged warning.

// logDegraded warns once per job, not once per task — an empty pool
// would otherwise log m+r near-identical lines.
func (st *runState[I, K, V, O]) logDegraded() {
	st.degradeOnce.Do(func() {
		st.e.logger().Warn("no live workers; degrading to local execution", "job", st.job.Name)
	})
}

// remoteMapAttempt dispatches one map attempt; its output is the replica
// of the worker's run in the run directory.
func (st *runState[I, K, V, O]) remoteMapAttempt(actx context.Context, hook *taskHook, task, attempt int) (out mapOutput[K, V], err error) {
	dir, err := st.runDir()
	if err != nil {
		return out, err
	}
	input := st.input[task]
	path := filepath.Join(dir, fmt.Sprintf("m%04d-a%03d.run", task, attempt))
	rm, err := st.remote.RunMapAttempt(actx, st.m, task, attempt, EncodeRecords(st.ic, input), len(input), path)
	if errors.Is(err, ErrNoWorkers) {
		// Degradation ladder, bottom rung: no live worker — run the
		// attempt in-process so the job still completes, into a run file
		// as a worker would: one code path.
		st.logDegraded()
		rm, err = st.execMapToRun(actx, hook, task, attempt, st.m, input, path)
	}
	if err != nil {
		return out, err
	}
	rm.Info.Path = path
	out.runs = []*runio.Info{rm.Info}
	out.replica = RemoteRun{MapTask: task, Path: path, Origin: rm.Origin, Info: rm.Info}
	out.metrics = rm.Metrics
	return out, nil
}

// remoteReduceAttempt dispatches one reduce attempt over the committed
// runs.
func (st *runState[I, K, V, O]) remoteReduceAttempt(actx context.Context, hook *taskHook, task, attempt int) (rout reduceOut[O], err error) {
	rr, err := st.remote.RunReduceAttempt(actx, st.m, task, attempt, st.replicas)
	if errors.Is(err, ErrNoWorkers) {
		// The reduce-side degradation path: merge the task's segments of
		// the master-local replicas in-process, through fds opened once
		// and closed with the run.
		st.logDegraded()
		st.replicaOnce.Do(func() {
			for i := range st.mapOut {
				out := &st.mapOut[i]
				if out.file, st.replicaErr = os.Open(out.replica.Path); st.replicaErr != nil {
					return
				}
			}
		})
		if st.replicaErr != nil {
			return rout, fmt.Errorf("open run replica: %w", st.replicaErr)
		}
		return st.runReduceAttempt(actx, hook, task, attempt, st.m, st.reduceInputs(task))
	}
	if err != nil {
		return rout, err
	}
	rout.out, err = DecodeRecordsInto(st.oc, rr.Output, rr.OutputCount, getOutBuf[O](st.outPool))
	if err != nil {
		putOutBuf(st.outPool, rout.out)
		return rout, fmt.Errorf("reduce task %d: decode output: %w", task, err)
	}
	rout.metrics = rr.Metrics
	return rout, nil
}

// encodeSample is how many leading records EncodeRecords sizes its blob
// from.
const encodeSample = 16

// EncodeRecords concatenates the codec encodings of recs into one blob
// (nil for an empty slice) — the record-blob convention remote inputs
// and reduce outputs cross process boundaries in. The
// blob is allocated once, at the size the first records predict plus an
// eighth; records that run longer than that grow it the usual way.
func EncodeRecords[T any](c runio.Codec[T], recs []T) []byte {
	if len(recs) == 0 {
		return nil
	}
	b := make([]byte, 0, 64*encodeSample)
	k := min(encodeSample, len(recs))
	for i := 0; i < k; i++ {
		b = c.Append(b, recs[i])
	}
	if k == len(recs) {
		return b
	}
	est := len(b) * len(recs) / k
	b = append(make([]byte, 0, est+est/8), b...)
	for i := k; i < len(recs); i++ {
		b = c.Append(b, recs[i])
	}
	return b
}

// DecodeRecords decodes a record blob produced by EncodeRecords. A
// zero-count blob decodes to nil.
func DecodeRecords[T any](c runio.Codec[T], b []byte, count int) ([]T, error) {
	if count == 0 {
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: %d blob bytes but 0 records", runio.ErrCorrupt, len(b))
		}
		return nil, nil
	}
	return DecodeRecordsInto(c, b, count, make([]T, 0, count))
}

// DecodeRecordsInto is DecodeRecords appending into a caller-provided
// buffer: count records, no trailing bytes, or an error — dst then
// holds the records decoded before it, which callers discard. One copy
// seals the blob as an immutable block, and every decoded string
// aliases it, so the cost is a handful of allocations per blob. The
// records pin that block for as long as any of them is reachable; the
// engine's callers keep or drop a blob's records together.
func DecodeRecordsInto[T any](c runio.Codec[T], b []byte, count int, dst []T) ([]T, error) {
	dec, src := c.NewDecoder(), string(b)
	for i := 0; i < count; i++ {
		v, n, err := dec(src)
		if err != nil {
			return dst, fmt.Errorf("record %d of %d: %w", i, count, err)
		}
		src = src[n:]
		dst = append(dst, v)
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes after %d records", runio.ErrCorrupt, len(src), count)
	}
	return dst, nil
}

// IsFatal reports whether err is marked Fatal (non-retryable). The dist
// worker uses it to preserve fatality across the wire: a fatal task
// error is re-wrapped with Fatal on the master side.
func IsFatal(err error) bool { return isFatal(err) }

// IsCorrupt reports whether err stems from structural corruption of a
// run file or record blob (runio.ErrCorrupt). Corruption of a served
// segment is surfaced structurally over the wire so the master can
// distinguish a bad replica from a flaky worker.
func IsCorrupt(err error) bool { return errors.Is(err, runio.ErrCorrupt) }

// PairCodec is the runio codec of Pair[K, V] given codecs for both
// halves — the input/output record shapes of pipeline jobs are Pairs,
// and distributed execution needs them encodable (RegisterPairCodec).
type PairCodec[K, V any] struct {
	KC runio.Codec[K]
	VC runio.Codec[V]
}

// Append implements runio.Codec.
func (c PairCodec[K, V]) Append(dst []byte, p Pair[K, V]) []byte {
	dst = c.KC.Append(dst, p.Key)
	return c.VC.Append(dst, p.Value)
}

// NewDecoder implements runio.Codec: both halves alias src.
func (c PairCodec[K, V]) NewDecoder() func(string) (Pair[K, V], int, error) {
	kdec, vdec := c.KC.NewDecoder(), c.VC.NewDecoder()
	return func(src string) (Pair[K, V], int, error) {
		var p Pair[K, V]
		k, n, err := kdec(src)
		if err != nil {
			return p, 0, fmt.Errorf("pair key: %w", err)
		}
		v, n2, err := vdec(src[n:])
		if err != nil {
			return p, 0, fmt.Errorf("pair value: %w", err)
		}
		p.Key, p.Value = k, v
		return p, n + n2, nil
	}
}

// RegisterPairCodec registers a codec for Pair[K, V] built from the
// registered codecs of K and V. It panics when either half is missing,
// like a direct runio.Register of an unregistrable codec would at
// first use.
func RegisterPairCodec[K, V any]() {
	kc, ok := runio.Lookup[K]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for key type %T", *new(K)))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for value type %T", *new(V)))
	}
	runio.Register[Pair[K, V]](PairCodec[K, V]{KC: kc, VC: vc})
}

package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/runio"
)

// This file is the engine's distributed-execution seam: the fourth
// dispatch mode, selected by Engine.Remote. The master-side driver
// (runRemote) runs the same task-attempt supervision as the local
// dataflows — every remote task is one run/commit/discard sequence under
// the RetryPolicy, so retries, backoff, speculation, and the task-commit
// protocol apply unchanged to tasks that execute in another process.
// The worker side re-runs the typed in-memory attempt verbatim
// (RemoteRunnable wraps a concrete Job) and materializes map output as a
// single sorted ERN1 run file, which makes the reduce phase a uniform
// segment merge — exactly the external dataflow's reduce discipline —
// so distributed results inherit the external≡typed byte-identity
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
// range-read from, and the attempt's side output as a record blob.
type RemoteMapResult struct {
	// Info describes the attempt's ERN1 run file; Info.Path must name a
	// file readable by this process (the dispatcher's replica).
	Info *runio.Info
	// Origin is the worker's run-serving URL ("" when the run only
	// exists locally). Reducers prefer it and fall back to the replica.
	Origin string
	// Side is the attempt's side output, SideCount records encoded with
	// the job's input codec (see EncodeRecords).
	Side      []byte
	SideCount int
	Metrics   TaskMetrics
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

// SegmentSource locates one map task's segment of one sorted run for a
// reduce attempt. R is an open file or an HTTP range reader; runio's
// segment readers bound every read to Seg.
type SegmentSource struct {
	R    io.ReaderAt
	Seg  runio.Segment
	Path string // names the run in corruption errors
}

// RemoteRunnable is the type-erased worker-side face of a typed Job:
// it executes single attempts from encoded inputs, so a worker process
// can run jobs whose concrete type parameters it does not know
// (internal/dist builds them through registered constructors).
type RemoteRunnable interface {
	JobName() string
	// ExecRemoteMap runs one typed map attempt over the decoded input
	// blob and writes the attempt's entire sorted output as one ERN1 run
	// at runPath. The result's Origin is left empty — serving is the
	// caller's concern.
	ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error)
	// ExecRemoteReduce runs one typed reduce attempt over the map tasks'
	// run segments, given in map-task order (zero-record segments may be
	// included; they contribute nothing).
	ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error)
}

// NewRemoteRunnable wraps a typed job for worker-side execution. It
// fails when any of the job's four record types lacks a runio codec —
// the same requirement the external dataflow has for K and V, extended
// to I and O because inputs and outputs cross the process boundary.
func NewRemoteRunnable[I, K, V, O any](j *Job[I, K, V, O]) (RemoteRunnable, error) {
	ic, ok := runio.Lookup[I]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for input type %T", j.Name, *new(I))
	}
	kc, ok := runio.Lookup[K]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for key type %T", j.Name, *new(K))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for value type %T", j.Name, *new(V))
	}
	oc, ok := runio.Lookup[O]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for output type %T", j.Name, *new(O))
	}
	st := newRunState(j)
	return &remoteRunnable[I, K, V, O]{j: j, st: st, ic: ic, oc: oc, cfg: newExtConfig(kc, vc, st.encode != nil)}, nil
}

type remoteRunnable[I, K, V, O any] struct {
	j  *Job[I, K, V, O]
	st *runState[I, K, V, O]
	ic runio.Codec[I]
	oc runio.Codec[O]
	// cfg holds the run-file half of the external dataflow's parameters
	// (codecs, key-code width, arena read path); a worker has no spill
	// directory, budget or observer of its own.
	cfg *extConfig[K, V]
}

func (rr *remoteRunnable[I, K, V, O]) JobName() string { return rr.j.Name }

func (rr *remoteRunnable[I, K, V, O]) ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error) {
	if err := rr.j.validate(m); err != nil {
		return nil, Fatal(err)
	}
	recs, err := DecodeRecords(rr.ic, input, inputCount)
	if err != nil {
		return nil, fmt.Errorf("map task %d input: %w", task, err)
	}
	return rr.st.execMapToRun(ctx, nil, task, m, recs, rr.ic, rr.cfg, runPath)
}

func (rr *remoteRunnable[I, K, V, O]) ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error) {
	if err := rr.j.validate(m); err != nil {
		return nil, Fatal(err)
	}
	inputs := make([]reduceInput[K, V], len(sources))
	for i, s := range sources {
		inputs[i].SegmentSource = s
	}
	rout, err := rr.st.runReduceAttemptMerge(ctx, nil, rr.cfg, task, attempt, m, inputs)
	if err != nil {
		return nil, err
	}
	blob := EncodeRecords(rr.oc, rout.out)
	res := &RemoteReduceResult{Output: blob, OutputCount: len(rout.out), Metrics: rout.metrics}
	putOutBuf(rr.st.outPool, rout.out)
	return res, nil
}

// execMapToRun runs one in-memory typed map attempt and writes its
// bucketed, sorted output as a single ERN1 run file — the shared
// implementation of the worker-side executor and the master's local
// degradation path. The run counters it sets (one run, its file bytes)
// are execution history, outside the differential contract.
func (st *runState[I, K, V, O]) execMapToRun(actx context.Context, hook *taskHook, task, m int, input []I, ic runio.Codec[I], cfg *extConfig[K, V], runPath string) (*RemoteMapResult, error) {
	mout, err := st.runMapAttempt(actx, hook, task, m, input)
	if err != nil {
		st.pools.putRecBuf(mout.flat)
		return nil, err
	}
	info, err := writeRun(runPath, mout.buckets, cfg.kc, cfg.vc, cfg.codeWidth)
	st.pools.putRecBuf(mout.flat)
	if err != nil {
		return nil, err
	}
	mout.metrics.SpillRuns++
	mout.metrics.SpillBytesWritten += info.FileBytes
	return &RemoteMapResult{
		Info:      info,
		Side:      EncodeRecords(ic, mout.side),
		SideCount: len(mout.side),
		Metrics:   mout.metrics,
	}, nil
}

// writeRun persists one map attempt's bucketed output as a sorted ERN1
// run (one segment per reduce partition, records encoded like the
// external dataflow's spill files: code ‖ key ‖ value).
func writeRun[K, V any](path string, buckets [][]Rec[K, V], kc runio.Codec[K], vc runio.Codec[V], codeWidth int) (*runio.Info, error) {
	w, err := runio.Create(path, len(buckets), codeWidth)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for p, b := range buckets {
		for i := range b {
			buf = buf[:0]
			if codeWidth != 0 {
				buf = binary.LittleEndian.AppendUint64(buf, b[i].code.Hi)
				buf = binary.LittleEndian.AppendUint64(buf, b[i].code.Lo)
			}
			buf = kc.Append(buf, b[i].Key)
			buf = vc.Append(buf, b[i].Value)
			if err := w.Append(p, buf); err != nil {
				w.Abort()
				os.Remove(path)
				return nil, err
			}
		}
	}
	info, err := w.Finish()
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return info, nil
}

// remoteMapOut is one distributed map attempt's private output.
type remoteMapOut[I any] struct {
	run     RemoteRun
	side    []I
	metrics TaskMetrics
}

// runRemote is the master-side driver of distributed execution (the job
// is already validated by Job.run, which dispatches here when
// Engine.Remote is set). Map and reduce attempts go through the
// dispatcher; the supervisor's retry loop is the reassignment machinery
// (a dead worker's dispatch error is just a failed attempt), and
// committed runs are never recomputed — the replica the dispatcher
// fetched at map commit outlives the worker that produced it. When the
// dispatcher reports ErrNoWorkers, the attempt degrades to local
// execution with a logged warning.
func (j *Job[I, K, V, O]) runRemote(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m := len(input)
	ic, ok := runio.Lookup[I]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for input type %T", j.Name, *new(I))
	}
	kc, ok := runio.Lookup[K]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for key type %T", j.Name, *new(K))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for value type %T", j.Name, *new(V))
	}
	oc, ok := runio.Lookup[O]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for output type %T", j.Name, *new(O))
	}
	if e.TmpDir != "" {
		if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: create tmp dir: %w", j.Name, err)
		}
	}
	dir, err := os.MkdirTemp(e.TmpDir, "mr-dist-*")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: create replica dir: %w", j.Name, err)
	}
	// The replica directory dies with this run on every exit path.
	defer os.RemoveAll(dir)

	// The degradation warning fires once per job, not once per task —
	// an empty pool would otherwise log m+r near-identical lines.
	var degradeOnce sync.Once
	logDegraded := func() {
		degradeOnce.Do(func() {
			e.logger().Warn("no live workers; degrading to local execution", "job", j.Name)
			if o := e.Obs; o != nil {
				o.Engine.Degraded.Inc()
			}
		})
	}

	jobID := e.beginJob(j.Name)
	defer e.endJob(jobID)

	st := newRunState(j)
	st.obs, st.jobID = e.Obs, jobID
	cfg := newExtConfig(kc, vc, st.encode != nil)
	cfg.obs, cfg.jobID = e.Obs, jobID

	r := j.NumReduceTasks
	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
		SideOutput: make([][]I, m),
	}

	// ---- Map phase (remote dispatch, run replication) ----
	runs := make([]RemoteRun, m)
	mstats, merr := superviseTasks(ctx, e, MapTask, jobID, m, nil,
		func(actx context.Context, hook *taskHook, task, attempt int) (remoteMapOut[I], error) {
			var out remoteMapOut[I]
			path := filepath.Join(dir, fmt.Sprintf("m%04d-a%03d.run", task, attempt))
			rm, err := e.Remote.RunMapAttempt(actx, m, task, attempt, EncodeRecords(ic, input[task]), len(input[task]), path)
			if err != nil {
				if !errors.Is(err, ErrNoWorkers) {
					return out, err
				}
				// Degradation ladder, bottom rung: no live worker — run
				// the attempt in-process so the job still completes.
				logDegraded()
				rm, err = st.execMapToRun(actx, hook, task, m, input[task], ic, cfg, path)
				if err != nil {
					return out, err
				}
				out.side = DecodeSlice(ic, rm.Side, rm.SideCount) // round-trip even locally: one code path
				out.run = RemoteRun{MapTask: task, Path: path, Info: rm.Info}
				out.metrics = rm.Metrics
				return out, nil
			}
			side, derr := DecodeRecords(ic, rm.Side, rm.SideCount)
			if derr != nil {
				os.Remove(path)
				return out, fmt.Errorf("map task %d: decode side output: %w", task, derr)
			}
			info := rm.Info
			info.Path = path
			out.run = RemoteRun{MapTask: task, Path: path, Origin: rm.Origin, Info: info}
			out.side = side
			out.metrics = rm.Metrics
			return out, nil
		},
		func(task int, out remoteMapOut[I]) error {
			out.metrics.Kind = MapTask
			out.metrics.Index = task
			res.MapMetrics[task] = out.metrics
			res.SideOutput[task] = out.side
			runs[task] = out.run
			return nil
		},
		func(out remoteMapOut[I]) {
			if out.run.Path != "" {
				os.Remove(out.run.Path)
			}
		},
	)
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

	// ---- Reduce phase (remote dispatch over committed runs) ----
	reduceOut := make([][]O, r)
	rstats, rerr := superviseTasks(ctx, e, ReduceTask, jobID, r,
		func(task int) int64 {
			var records int64
			for _, run := range runs {
				if run.Info != nil {
					records += run.Info.Segments[task].Records
				}
			}
			return records
		},
		func(actx context.Context, hook *taskHook, task, attempt int) (typedReduceOut[O], error) {
			var rout typedReduceOut[O]
			rr, err := e.Remote.RunReduceAttempt(actx, m, task, attempt, runs)
			if err != nil {
				if !errors.Is(err, ErrNoWorkers) {
					return rout, err
				}
				logDegraded()
				return st.runReduceSegmentsLocal(actx, hook, cfg, task, attempt, m, runs)
			}
			out := getOutBuf[O](st.outPool)
			out, derr := DecodeRecordsInto(oc, rr.Output, rr.OutputCount, out)
			if derr != nil {
				putOutBuf(st.outPool, out)
				return rout, fmt.Errorf("reduce task %d: decode output: %w", task, derr)
			}
			rout.out = out
			rout.metrics = rr.Metrics
			return rout, nil
		},
		func(task int, out typedReduceOut[O]) error {
			out.metrics.Kind = ReduceTask
			out.metrics.Index = task
			res.ReduceMetrics[task] = out.metrics
			if sink != nil {
				sink.writeAll(out.out)
				putOutBuf(st.outPool, out.out)
				return nil
			}
			reduceOut[task] = out.out
			return nil
		},
		func(out typedReduceOut[O]) { putOutBuf(st.outPool, out.out) },
	)
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
	return res, nil
}

// runReduceSegmentsLocal is the reduce-side degradation path: open each
// committed run's master-local replica and merge the task's segments
// in-process.
func (st *runState[I, K, V, O]) runReduceSegmentsLocal(actx context.Context, hook *taskHook, cfg *extConfig[K, V], task, attempt, m int, runs []RemoteRun) (rout typedReduceOut[O], err error) {
	inputs := make([]reduceInput[K, V], 0, m)
	files := make([]*os.File, 0, m)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for mi := 0; mi < m; mi++ {
		run := runs[mi]
		if run.Info == nil || run.Info.Segments[task].Records == 0 {
			continue
		}
		f, oerr := os.Open(run.Path)
		if oerr != nil {
			return rout, fmt.Errorf("open run replica: %w", oerr)
		}
		files = append(files, f)
		inputs = append(inputs, reduceInput[K, V]{SegmentSource: SegmentSource{R: f, Seg: run.Info.Segments[task], Path: run.Path}})
	}
	return st.runReduceAttemptMerge(actx, hook, cfg, task, attempt, m, inputs)
}

// encodeSample is how many leading records EncodeRecords sizes its blob
// from.
const encodeSample = 16

// EncodeRecords concatenates the codec encodings of recs into one blob
// (nil for an empty slice) — the record-blob convention remote inputs,
// side outputs, and reduce outputs cross process boundaries in. The
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
// zero-count blob decodes to nil, so side output round-trips its
// nil-ness (the differential suite compares with reflect.DeepEqual).
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
// buffer. A codec with a runio.SharedDecoder decodes on the arena path,
// chosen from the codec type like the external dataflow's read path:
// one copy seals the blob as an immutable block, and every decoded
// string aliases it, so the cost is a handful of allocations per blob
// where the byte path pays one per string field. The records pin that
// block for as long as any of them is reachable; the engine's callers
// keep or drop a blob's records together.
func DecodeRecordsInto[T any](c runio.Codec[T], b []byte, count int, dst []T) ([]T, error) {
	if sd, ok := c.(runio.SharedDecoder[T]); ok {
		return decodeBlob(sd.NewSharedDecoder(), string(b), count, dst)
	}
	return decodeBlob(c.Decode, b, count, dst)
}

// decodeBlob is the one blob walk of both decode paths: count records,
// no trailing bytes, or an error — dst then holds the records decoded
// before it, which callers discard.
func decodeBlob[T any, S string | []byte](dec func(S) (T, int, error), src S, count int, dst []T) ([]T, error) {
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

// DecodeSlice is DecodeRecords for blobs this process just encoded —
// decoding cannot fail, so errors panic (an engine invariant, not an
// input condition).
func DecodeSlice[T any](c runio.Codec[T], b []byte, count int) []T {
	recs, err := DecodeRecords(c, b, count)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: round-trip decode of locally encoded records failed: %v", err))
	}
	return recs
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

// Decode implements runio.Codec.
func (c PairCodec[K, V]) Decode(src []byte) (Pair[K, V], int, error) {
	var p Pair[K, V]
	k, n, err := c.KC.Decode(src)
	if err != nil {
		return p, 0, fmt.Errorf("pair key: %w", err)
	}
	v, n2, err := c.VC.Decode(src[n:])
	if err != nil {
		return p, 0, fmt.Errorf("pair value: %w", err)
	}
	p.Key, p.Value = k, v
	return p, n + n2, nil
}

// sharedPairCodec is PairCodec over two codecs that both have shared
// decoders: the pair then has one too, so pair-shaped inputs and
// outputs decode on the arena path.
type sharedPairCodec[K, V any] struct{ PairCodec[K, V] }

// NewSharedDecoder implements runio.SharedDecoder: both halves alias src.
func (c sharedPairCodec[K, V]) NewSharedDecoder() func(string) (Pair[K, V], int, error) {
	kdec := c.KC.(runio.SharedDecoder[K]).NewSharedDecoder()
	vdec := c.VC.(runio.SharedDecoder[V]).NewSharedDecoder()
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
// registered codecs of K and V — with a shared decoder when both halves
// have one. It panics when either half is missing, like a direct
// runio.Register of an unregistrable codec would at first use.
func RegisterPairCodec[K, V any]() {
	kc, ok := runio.Lookup[K]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for key type %T", *new(K)))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for value type %T", *new(V)))
	}
	pc := PairCodec[K, V]{KC: kc, VC: vc}
	_, kshared := kc.(runio.SharedDecoder[K])
	_, vshared := vc.(runio.SharedDecoder[V])
	if kshared && vshared {
		runio.Register[Pair[K, V]](sharedPairCodec[K, V]{pc})
		return
	}
	runio.Register[Pair[K, V]](pc)
}

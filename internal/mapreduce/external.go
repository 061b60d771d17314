package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/runio"
)

// This file implements DataflowExternal, the out-of-core realization of
// the typed engine: the Hadoop dataflow where map output beyond a
// per-task byte budget spills to sorted on-disk runs and reducers
// stream an external k-way merge over run segments.
//
// The execution model is unchanged — same partition/compare/group
// semantics, same stability guarantee — only the residency of the
// intermediate records differs, so results are byte-identical to
// DataflowTyped (the differential tests assert it, TaskMetrics
// included, spill counters excepted). The moving pieces:
//
//   - extSpiller accumulates map output twice: decoded (for the spill
//     sort and the in-memory tail) and encoded (runio codecs, applied
//     once per record at emit time, which also gives exact byte-
//     denominated budget accounting). When the encoded bytes reach the
//     budget, the batch is stable-sorted by (reduce partition, key) —
//     the record's binary key code first, exactly like the in-memory
//     engine — and written as one run file (runio.Writer).
//   - The stability tiebreak extends from (key, mapTask) to (key,
//     mapTask, run): runs are temporal segments of one task's output,
//     so merging them in run order with the in-memory tail last
//     reproduces the task's emission order for equal keys, and the
//     merged stream is identical to the all-in-memory sort.
//   - With a combiner, the task's spilled runs and tail are first
//     k-way merged back (map-side), combined group-by-group exactly
//     like the in-memory combine, and the combiner's output flows
//     through a second-generation spiller. This keeps combiner group
//     boundaries — and therefore every metric — identical to the
//     typed engine, unlike Hadoop's per-spill combining.
//   - Reduce task j merges, per map task, the partition-j segment of
//     every run plus the in-memory tail bucket, all behind the same
//     merge-heap discipline as the in-memory path.
//
// Temp-file lifecycle: Run creates one directory under Engine.TmpDir
// and removes it on every exit path, success or error. Each map
// *attempt* writes its runs into an attempt-scoped subdirectory
// (m0007-a001/); the supervisor's commit step atomically adopts the
// directory by renaming it to the task's final name (m0007/), and a
// failed or superseded attempt's directory is reaped instead — so
// concurrent attempts of one task never collide and a retried task
// never leaves stale runs behind. First-generation runs are
// additionally deleted as soon as the map-side combine has drained
// them.

// DefaultSpillBudget is the per-map-task encoded-byte budget when
// Engine.SpillBudget is zero.
const DefaultSpillBudget = 64 << 20

// extConfig carries the run-wide external-dataflow parameters.
type extConfig[K, V any] struct {
	kc        runio.Codec[K]
	vc        runio.Codec[V]
	dir       string
	budget    int64
	codeWidth int
	// shared is true when both codecs implement runio.SharedDecoder, so
	// merge sources read through the arena path (block strings, aliasing
	// decoders, zero copies per record) instead of the byte path.
	shared bool
	// obs/jobID thread the run's observability identity to the spillers
	// and merge paths (spill spans, spill-byte counters). nil when off.
	obs   *obs.Observer
	jobID uint32
}

// newExtConfig fixes what the codecs decide: the arena read path when
// both support it, and the width of the key-code prefix of each on-disk
// record. Callers fill in the run's directory, budget and observer.
func newExtConfig[K, V any](kc runio.Codec[K], vc runio.Codec[V], coded bool) *extConfig[K, V] {
	cfg := &extConfig[K, V]{kc: kc, vc: vc}
	_, kshared := kc.(runio.SharedDecoder[K])
	_, vshared := vc.(runio.SharedDecoder[V])
	cfg.shared = kshared && vshared
	if coded {
		cfg.codeWidth = 16
	}
	return cfg
}

// runExternal executes the job on the external dataflow (the job is
// already validated by Job.run, which dispatches here). See
// Job.RunContext for the semantics; this path additionally requires
// runio codecs registered for K and V. The deferred RemoveAll makes the
// spill directory die on every exit path — cancellation included.
func (j *Job[I, K, V, O]) runExternal(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m := len(input)
	kc, ok := runio.Lookup[K]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: external dataflow: no runio codec registered for key type %T (runio.Register it in the key's package)", j.Name, *new(K))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: external dataflow: no runio codec registered for value type %T (runio.Register it in the value's package)", j.Name, *new(V))
	}
	if e.TmpDir != "" {
		if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: create tmp dir: %w", j.Name, err)
		}
	}
	dir, err := os.MkdirTemp(e.TmpDir, "mr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: create spill dir: %w", j.Name, err)
	}
	// The spill directory dies with this Run on every exit path.
	defer os.RemoveAll(dir)

	st := newRunState(j)
	st.limiter = newSortLimiter(e.Parallelism)
	jobID := e.beginJob(j.Name)
	defer e.endJob(jobID)
	st.obs, st.jobID = e.Obs, jobID
	cfg := newExtConfig(kc, vc, st.encode != nil)
	cfg.dir, cfg.budget, cfg.obs, cfg.jobID = dir, e.SpillBudget, e.Obs, jobID
	if cfg.budget <= 0 {
		cfg.budget = DefaultSpillBudget
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

	// ---- Map phase (spilling) ----
	mapOut := make([]extMapOutput[I, K, V], m)
	mstats, merr := superviseTasks(ctx, e, MapTask, jobID, m, nil,
		func(actx context.Context, hook *taskHook, task, attempt int) (extMapOutput[I, K, V], error) {
			return st.runMapAttemptExternal(actx, hook, cfg, task, attempt, m, input[task])
		},
		func(task int, out extMapOutput[I, K, V]) error {
			// Adopt the attempt's spill directory under the task's final
			// name; the rename is the commit point for the on-disk runs.
			// The spill file's open fd survives the rename — the reduce
			// phase reads through it, so the file is never reopened.
			if len(out.runs) == 0 {
				out.closeFile()
				if out.dir != "" {
					os.RemoveAll(out.dir)
				}
			} else {
				final := filepath.Join(cfg.dir, fmt.Sprintf("m%04d", task))
				if err := os.Rename(out.dir, final); err != nil {
					out.closeFile()
					return fmt.Errorf("adopt spill dir: %w", err)
				}
				for _, info := range out.runs {
					info.Path = filepath.Join(final, filepath.Base(info.Path))
				}
			}
			out.metrics.Kind = MapTask
			out.metrics.Index = task
			res.MapMetrics[task] = out.metrics
			res.SideOutput[task] = out.side
			mapOut[task] = out
			return nil
		},
		func(out extMapOutput[I, K, V]) {
			out.closeFile()
			if out.dir != "" {
				os.RemoveAll(out.dir)
			}
			st.pools.putRecBuf(out.flat)
		},
	)
	res.addStats(mstats)
	// Committed map tasks hand over their spill file's open fd; close
	// them all on every exit path from here on (the reduce phase reads
	// through these fds via pread — runs are never reopened).
	defer func() {
		for i := range mapOut {
			mapOut[i].closeFile()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if merr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, merr)
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	// ---- Shuffle + external merge + reduce phase ----
	reduceOut := make([][]O, r)
	rstats, rerr := superviseTasks(ctx, e, ReduceTask, jobID, r,
		func(task int) int64 {
			var records int64
			for mi := range mapOut {
				for _, info := range mapOut[mi].runs {
					records += info.Segments[task].Records
				}
				records += int64(len(mapOut[mi].buckets[task]))
			}
			return records
		},
		func(actx context.Context, hook *taskHook, task, attempt int) (typedReduceOut[O], error) {
			return st.runReduceAttemptExternal(actx, hook, cfg, task, attempt, mapOut)
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
	for i := range mapOut {
		st.pools.putRecBuf(mapOut[i].flat)
	}
	return res, nil
}

// extMapOutput is one map attempt's shuffle-ready output on the
// external dataflow: zero or more sorted on-disk runs in the attempt's
// spill directory plus the in-memory tail, already bucketed and sorted
// like a typed-engine task's output. The supervisor's commit step
// renames dir to the task's final name (updating the run paths) or
// reaps it when the attempt is discarded.
type extMapOutput[I, K, V any] struct {
	runs    []*runio.Info
	file    *os.File // the open spill file holding every run in runs
	buckets [][]Rec[K, V]
	flat    []Rec[K, V]
	side    []I
	dir     string
	metrics TaskMetrics
}

func (out *extMapOutput[I, K, V]) closeFile() {
	if out.file != nil {
		out.file.Close()
		out.file = nil
	}
}

func (st *runState[I, K, V, O]) runMapAttemptExternal(actx context.Context, hook *taskHook, cfg *extConfig[K, V], idx, attempt, m int, input []I) (out extMapOutput[I, K, V], err error) {
	// Declared before recoverAttempt so it runs after it (LIFO): by the
	// time the attempt's spill directory is reaped, a recovered panic
	// has already been translated into err. Spill-file fds opened by the
	// attempt's spillers are closed on the same path.
	var spillers []*extSpiller[K, V]
	defer func() {
		if err != nil {
			for _, s := range spillers {
				s.closeFile()
			}
			if out.dir != "" {
				os.RemoveAll(out.dir)
				out.dir = ""
			}
		}
	}()
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return out, err
	}
	out.dir = filepath.Join(cfg.dir, fmt.Sprintf("m%04d-a%03d", idx, attempt))
	if err := os.MkdirAll(out.dir, 0o755); err != nil {
		return out, err
	}
	j := st.job
	r := j.NumReduceTasks
	metrics := &out.metrics
	sp := st.newSpiller(cfg, out.dir, "g0", idx, attempt, metrics, hook)
	spillers = append(spillers, sp)
	ctx := &MapContext[I, K, V]{metrics: metrics, encode: st.encode, spill: sp, sideCap: len(input), hook: hook}
	mapper := j.NewMapper()
	mapper.Configure(m, r, idx)
	check := actx.Done() != nil
	for i := range input {
		if check && i&cancelCheckMask == 0 && actx.Err() != nil {
			return out, actx.Err()
		}
		metrics.InputRecords++
		mapper.Map(ctx, input[i])
	}
	if sp.err != nil {
		return out, sp.err
	}
	out.side = ctx.side

	if j.NewCombiner == nil {
		out.runs = sp.runs
		out.file = sp.f // ownership moves to the output (commit/discard)
		out.buckets, out.flat, err = st.partitionAndSort(sp.takeRecs())
		return out, err
	}

	if len(sp.runs) == 0 {
		// Nothing spilled: the whole task fits in budget, so the
		// combine is the typed engine's, verbatim.
		combined, cerr := st.combine(idx, m, sp.recs, metrics, hook)
		st.pools.putRecBuf(sp.takeRecs())
		if cerr != nil {
			return out, cerr
		}
		metrics.OutputRecords = int64(len(combined))
		out.buckets, out.flat, err = st.partitionAndSort(combined)
		return out, err
	}

	// Map-side external merge + combine: stream the spilled runs and
	// the sorted tail back in (partition, key, run) order, cut the
	// stream into the same groups the in-memory combine would form
	// (a group never spans partitions — grouping must be compatible
	// with partitioning, as in Hadoop), and feed the combiner, whose
	// output flows through a second-generation spiller.
	sp2 := st.newSpiller(cfg, out.dir, "g1", idx, attempt, metrics, hook)
	spillers = append(spillers, sp2)
	cctx := &MapContext[I, K, V]{metrics: metrics, encode: st.encode, spill: sp2, hook: hook}
	combiner := j.NewCombiner()
	combiner.Configure(m, r, idx)
	if err := st.mergeSpilled(cfg, sp, metrics, hook, func(group []Rec[K, V]) {
		combiner.Combine(cctx, group[0].Key, group)
	}); err != nil {
		return out, err
	}
	if sp2.err != nil {
		return out, sp2.err
	}
	// The combiner rewrote the task's output; fix the metric (the
	// typed engine does the same after its in-memory combine).
	metrics.OutputRecords = sp2.count
	out.runs = sp2.runs
	out.file = sp2.f // ownership moves to the output (commit/discard)
	out.buckets, out.flat, err = st.partitionAndSort(sp2.takeRecs())
	return out, err
}

// mergeSpilled merges one map task's spilled runs and in-memory tail
// back into (partition, key, run)-ordered groups and hands each group
// to emit. The first-generation run files are deleted once drained.
func (st *runState[I, K, V, O]) mergeSpilled(cfg *extConfig[K, V], sp *extSpiller[K, V], metrics *TaskMetrics, hook *taskHook, emit func(group []Rec[K, V])) error {
	if err := hook.fire(FaultMerge); err != nil {
		return err
	}
	if cfg.obs != nil {
		st.recordMerge(obs.EvBegin, obs.PhaseMap, sp.task, sp.attempt, int64(len(sp.runs)))
		defer st.recordMerge(obs.EvEnd, obs.PhaseMap, sp.task, sp.attempt, int64(len(sp.runs)))
	}
	dec := newRecDecoder(cfg)
	sources := make([]mergeSource[K, V], 0, len(sp.runs)+1)
	var spillRead *obs.Counter // nil-safe handle when observability is off
	if cfg.obs != nil {
		spillRead = cfg.obs.Engine.SpillBytesRead
	}
	for _, info := range sp.runs {
		// The spiller's fd is still open; runs are read back through it
		// via pread — no reopen.
		if cfg.shared {
			sources = append(sources, &sharedRunSource[K, V]{f: sp.f, info: info, dec: dec})
		} else {
			sources = append(sources, &runSource[K, V]{f: sp.f, info: info, dec: dec})
		}
		metrics.SpillBytesRead += info.Bytes
		spillRead.Add(info.Bytes)
	}
	parts, perm, err := sp.sortedPerm()
	if err != nil {
		return err
	}
	defer putInt32Buf(parts)
	defer putInt32Buf(perm)
	if len(sp.recs) > 0 {
		sources = append(sources, &tailSource[K, V]{recs: sp.recs, parts: parts, perm: perm})
	}

	mg, err := newExtMerger(st, sources)
	if err != nil {
		return err
	}
	group := st.pools.getRecBuf()
	var part int32
	for {
		rec, p, ok, err := mg.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(group) > 0 && (p != part || !st.sameGroup(&group[0], &rec)) {
			emit(group)
			group = group[:0]
		}
		group = append(group, rec)
		part = p
	}
	if len(group) > 0 {
		emit(group)
	}
	st.pools.putRecBuf(group)
	st.pools.putRecBuf(sp.takeRecs())
	// Generation-0 runs are dead; free the disk before gen-1 grows.
	sp.closeFile()
	if sp.path != "" {
		os.Remove(sp.path)
	}
	return nil
}

// reduceInput is one pre-sorted input of a reduce attempt's merge: one
// partition segment of an ERN1 run, read through R (the map task's open
// spill file, a replica, or an HTTP range reader), or — when bucket is
// non-nil — a map task's in-memory tail bucket.
type reduceInput[K, V any] struct {
	SegmentSource
	bucket []Rec[K, V]
}

// runReduceAttemptExternal merges reduce task idx's share of every
// committed map output: per map task its runs' segments in run order,
// then its in-memory tail bucket.
func (st *runState[I, K, V, O]) runReduceAttemptExternal(actx context.Context, hook *taskHook, cfg *extConfig[K, V], idx, attempt int, mapOut []extMapOutput[I, K, V]) (typedReduceOut[O], error) {
	n := len(mapOut)
	for mi := range mapOut {
		n += len(mapOut[mi].runs)
	}
	inputs := make([]reduceInput[K, V], 0, n)
	for mi := range mapOut {
		for _, info := range mapOut[mi].runs {
			if seg := info.Segments[idx]; seg.Records > 0 {
				inputs = append(inputs, reduceInput[K, V]{SegmentSource: SegmentSource{R: mapOut[mi].file, Seg: seg, Path: info.Path}})
			}
		}
		if b := mapOut[mi].buckets[idx]; len(b) > 0 {
			inputs = append(inputs, reduceInput[K, V]{bucket: b})
		}
	}
	return st.runReduceAttemptMerge(actx, hook, cfg, idx, attempt, len(mapOut), inputs)
}

// runReduceAttemptMerge is the reduce-attempt body of every dataflow
// whose map output is sorted runs: the external dataflow, the
// distributed worker, and the master's local degradation path. The
// input order is the merge tiebreak — (map task, run, tail) — which
// extends the typed engine's map-task tiebreak with temporal run order:
// the stability guarantee. Segments decode on the arena read path when
// cfg.shared, whatever io.ReaderAt they are read through.
func (st *runState[I, K, V, O]) runReduceAttemptMerge(actx context.Context, hook *taskHook, cfg *extConfig[K, V], idx, attempt, m int, inputs []reduceInput[K, V]) (rout typedReduceOut[O], err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return rout, err
	}
	j := st.job
	metrics := &rout.metrics
	ctx := &ReduceContext[O]{metrics: metrics, out: getOutBuf[O](st.outPool), hook: hook}
	reducer := j.NewReducer()
	reducer.Configure(m, j.NumReduceTasks, idx)

	dec := newRecDecoder(cfg)
	sources := make([]mergeSource[K, V], 0, len(inputs))
	var total int64
	var spillRead *obs.Counter // nil-safe handle when observability is off
	if cfg.obs != nil {
		spillRead = cfg.obs.Engine.SpillBytesRead
	}
	for i := range inputs {
		in := &inputs[i]
		if in.bucket != nil {
			sources = append(sources, &bucketSource[K, V]{recs: in.bucket, part: int32(idx)})
			total += int64(len(in.bucket))
			continue
		}
		if in.Seg.Records == 0 {
			continue
		}
		if cfg.shared {
			ss := &sharedSegSource[K, V]{dec: dec, part: int32(idx)}
			ss.sr.Init(in.R, in.Seg, in.Path)
			sources = append(sources, ss)
		} else {
			sources = append(sources, &segSource[K, V]{
				sr:   runio.NewSegmentReader(in.R, in.Seg, in.Path),
				dec:  dec,
				part: int32(idx),
			})
		}
		total += in.Seg.Records
		metrics.SpillBytesRead += in.Seg.Len
		spillRead.Add(in.Seg.Len)
	}
	metrics.InputRecords = total

	if err := hook.fire(FaultMerge); err != nil {
		return rout, err
	}
	if st.obs != nil {
		st.recordMerge(obs.EvBegin, obs.PhaseReduce, idx, attempt, total)
		defer st.recordMerge(obs.EvEnd, obs.PhaseReduce, idx, attempt, total)
	}
	mg, err := newExtMerger(st, sources)
	if err != nil {
		return rout, err
	}
	group := st.pools.getRecBuf()
	check := actx.Done() != nil
	for n := 0; ; n++ {
		if check && n&cancelCheckMask == 0 && actx.Err() != nil {
			return rout, actx.Err()
		}
		rec, _, ok, err := mg.next()
		if err != nil {
			return rout, err
		}
		if !ok {
			break
		}
		if len(group) > 0 && !st.sameGroup(&group[0], &rec) {
			st.emitGroup(ctx, reducer, group)
			group = group[:0]
		}
		group = append(group, rec)
	}
	if len(group) > 0 {
		st.emitGroup(ctx, reducer, group)
	}
	st.pools.putRecBuf(group)
	rout.out = ctx.out
	return rout, nil
}

// ---- the spiller ----

// extSpiller buffers one map task's emitted records, encoded once at
// emit time (exact byte budget accounting, no re-encode at spill), and
// flushes sorted runs whenever the encoded bytes reach the budget.
type extSpiller[K, V any] struct {
	cfg     *extConfig[K, V]
	dir     string // the attempt's spill directory
	prefix  string // run generation within the attempt ("g0"/"g1")
	r       int
	cmp     func(a, b *Rec[K, V]) int
	part    func(K, int) int
	limiter *sortLimiter
	metrics *TaskMetrics
	hook    *taskHook
	// task/attempt identify the owning attempt in spill trace spans.
	task    int
	attempt int

	recs  []Rec[K, V]
	enc   []byte
	spans []extSpan
	runs  []*runio.Info
	count int64 // records appended over the task's lifetime
	err   error // sticky: first spill failure stops the task

	// All of a generation's runs are appended as sections of one spill
	// file sharing one fd (runio.NewRunWriter), created lazily at the
	// first spill. The fd is kept open — the map-side combine and the
	// reduce phase read segments through it via pread — so a run costs
	// zero file-lifecycle syscalls beyond its writes, instead of the
	// create/close/reopen/unlink per run that dominated small-budget
	// profiles.
	f       *os.File
	path    string
	fileOff int64
}

type extSpan struct{ off, end int64 }

// recordSpill emits a spill-span event with the owning attempt's
// identity. Callers guard on cfg.obs.
func (sp *extSpiller[K, V]) recordSpill(typ obs.EventType, arg int64) {
	sp.cfg.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KSpill, Phase: obs.PhaseMap, Job: sp.cfg.jobID,
		Task: int32(sp.task), Attempt: int32(sp.attempt), Arg: arg,
	})
}

func (st *runState[I, K, V, O]) newSpiller(cfg *extConfig[K, V], dir, prefix string, task, attempt int, metrics *TaskMetrics, hook *taskHook) *extSpiller[K, V] {
	return &extSpiller[K, V]{
		cfg:     cfg,
		dir:     dir,
		prefix:  prefix,
		r:       st.job.NumReduceTasks,
		cmp:     st.cmp,
		part:    st.job.Partition,
		limiter: st.limiter,
		metrics: metrics,
		hook:    hook,
		task:    task,
		attempt: attempt,
	}
}

// add appends one record, spilling the buffered batch when the encoded
// bytes reach the budget. Errors are sticky (checked by the task after
// the map loop) because Emit has no error channel.
func (sp *extSpiller[K, V]) add(rec Rec[K, V]) {
	if sp.err != nil {
		return
	}
	off := int64(len(sp.enc))
	if sp.cfg.codeWidth != 0 {
		sp.enc = binary.LittleEndian.AppendUint64(sp.enc, rec.code.Hi)
		sp.enc = binary.LittleEndian.AppendUint64(sp.enc, rec.code.Lo)
	}
	sp.enc = sp.cfg.kc.Append(sp.enc, rec.Key)
	sp.enc = sp.cfg.vc.Append(sp.enc, rec.Value)
	sp.spans = append(sp.spans, extSpan{off: off, end: int64(len(sp.enc))})
	sp.recs = append(sp.recs, rec)
	sp.count++
	if int64(len(sp.enc)) >= sp.cfg.budget {
		sp.err = sp.spill()
	}
}

// closeFile closes the generation's spill file fd (idempotent). Called
// when ownership is NOT being handed to extMapOutput: after the
// map-side combine drains generation 0, or on attempt failure.
func (sp *extSpiller[K, V]) closeFile() {
	if sp.f != nil {
		sp.f.Close()
		sp.f = nil
	}
}

// takeRecs hands the decoded tail to the caller and detaches it from
// the spiller (the encoded copy is dropped).
func (sp *extSpiller[K, V]) takeRecs() []Rec[K, V] {
	recs := sp.recs
	sp.recs = nil
	sp.enc = nil
	sp.spans = nil
	return recs
}

// sortedPerm computes each buffered record's reduce partition and a
// permutation that orders the batch by (partition, key) — binary key
// code first, like every other sort in the engine — stable in emission
// order. Both slices are pooled; the caller returns them.
func (sp *extSpiller[K, V]) sortedPerm() (parts, perm []int32, err error) {
	n := len(sp.recs)
	parts = getInt32Buf(n)
	perm = getInt32Buf(n)
	for i := range sp.recs {
		p := sp.part(sp.recs[i].Key, sp.r)
		if p < 0 || p >= sp.r {
			putInt32Buf(parts)
			putInt32Buf(perm)
			// A deterministic user-logic bug: re-running cannot fix it.
			return nil, nil, Fatal(fmt.Errorf("partition function returned %d for %d reduce tasks", p, sp.r))
		}
		parts[i] = int32(p)
		perm[i] = int32(i)
	}
	// Sort the permutation by (partition, key) with the shared stable
	// merge sort — parallel when the run's limiter has free workers,
	// bitwise-identical to the serial order either way (parsort.go).
	cmp := func(x, y *int32) int {
		a, b := *x, *y
		if parts[a] != parts[b] {
			return int(parts[a]) - int(parts[b])
		}
		return sp.cmp(&sp.recs[a], &sp.recs[b])
	}
	scratch := getInt32Buf(n)
	stableSortParallelG(perm, scratch, sp.limiter, cmp)
	putInt32Buf(scratch)
	return parts, perm, nil
}

// spill writes the buffered batch as one sorted run file and resets the
// buffers (capacity retained: the next batch will be about as large).
func (sp *extSpiller[K, V]) spill() error {
	if len(sp.recs) == 0 {
		return nil
	}
	if err := sp.hook.fire(FaultSpill); err != nil {
		return err
	}
	if sp.cfg.obs != nil {
		sp.recordSpill(obs.EvBegin, int64(len(sp.enc)))
		// Arg mirrors the begin event's buffered-byte count; the span's
		// duration covers the sort and the run write together.
		defer sp.recordSpill(obs.EvEnd, int64(len(sp.enc)))
	}
	parts, perm, err := sp.sortedPerm()
	if err != nil {
		return err
	}
	defer putInt32Buf(parts)
	defer putInt32Buf(perm)
	if sp.f == nil {
		sp.path = filepath.Join(sp.dir, sp.prefix+".runs")
		f, err := os.OpenFile(sp.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("create spill file: %w", err)
		}
		sp.f = f
	}
	w, err := runio.NewRunWriter(sp.f, sp.fileOff, sp.r, sp.cfg.codeWidth)
	if err != nil {
		return err
	}
	for _, i := range perm {
		s := sp.spans[i]
		if err := w.Append(int(parts[i]), sp.enc[s.off:s.end]); err != nil {
			w.Abort()
			return err
		}
	}
	info, err := w.Finish()
	if err != nil {
		return err
	}
	sp.fileOff += info.FileBytes
	sp.runs = append(sp.runs, info)
	sp.metrics.SpillRuns++
	sp.metrics.SpillBytesWritten += info.FileBytes
	if o := sp.cfg.obs; o != nil {
		// Obs counters count every attempt's spills as they happen;
		// TaskMetrics above is attempt-private and published only on
		// commit — that asymmetry is deliberate (obs is observational,
		// TaskMetrics is inside the differential contract).
		o.Engine.SpillRuns.Inc()
		o.Engine.SpillBytesWritten.Add(info.FileBytes)
	}
	clear(sp.recs)
	sp.recs = sp.recs[:0]
	sp.enc = sp.enc[:0]
	sp.spans = sp.spans[:0]
	return nil
}

// ---- merge sources and the external merge heap ----

// recDecoder decodes one on-disk record (code ‖ key ‖ value) into a
// Rec. On the byte path, decoded values never alias the read buffer
// (codec contract); on the shared path (kdec/vdec non-nil), decoded
// strings alias the reader's immutable blocks (SharedDecoder contract).
type recDecoder[K, V any] struct {
	kc        runio.Codec[K]
	vc        runio.Codec[V]
	codeWidth int
	kdec      func(string) (K, int, error)
	vdec      func(string) (V, int, error)
}

// newRecDecoder builds the per-attempt decoder; the shared decode
// functions are stateful (arenas) and single-goroutine, hence one
// decoder per task attempt, shared across that attempt's sources.
func newRecDecoder[K, V any](cfg *extConfig[K, V]) *recDecoder[K, V] {
	d := &recDecoder[K, V]{kc: cfg.kc, vc: cfg.vc, codeWidth: cfg.codeWidth}
	if cfg.shared {
		d.kdec = cfg.kc.(runio.SharedDecoder[K]).NewSharedDecoder()
		d.vdec = cfg.vc.(runio.SharedDecoder[V]).NewSharedDecoder()
	}
	return d
}

func (d *recDecoder[K, V]) decode(b []byte, dst *Rec[K, V]) error {
	if d.codeWidth != 0 {
		if len(b) < d.codeWidth {
			return fmt.Errorf("%w: record shorter than key code", runio.ErrCorrupt)
		}
		dst.code.Hi = binary.LittleEndian.Uint64(b)
		dst.code.Lo = binary.LittleEndian.Uint64(b[8:])
		b = b[d.codeWidth:]
	} else {
		dst.code = Code{}
	}
	k, n, err := d.kc.Decode(b)
	if err != nil {
		return fmt.Errorf("decode key: %w", err)
	}
	v, n2, err := d.vc.Decode(b[n:])
	if err != nil {
		return fmt.Errorf("decode value: %w", err)
	}
	if n+n2 != len(b) {
		return fmt.Errorf("%w: %d trailing record bytes", runio.ErrCorrupt, len(b)-n-n2)
	}
	dst.Key, dst.Value = k, v
	return nil
}

// decodeShared is decode over a record string from the arena read path.
func (d *recDecoder[K, V]) decodeShared(b string, dst *Rec[K, V]) error {
	if d.codeWidth != 0 {
		if len(b) < d.codeWidth {
			return fmt.Errorf("%w: record shorter than key code", runio.ErrCorrupt)
		}
		dst.code.Hi, _ = runio.Uint64LEString(b)
		dst.code.Lo, _ = runio.Uint64LEString(b[8:])
		b = b[d.codeWidth:]
	} else {
		dst.code = Code{}
	}
	k, n, err := d.kdec(b)
	if err != nil {
		return fmt.Errorf("decode key: %w", err)
	}
	v, n2, err := d.vdec(b[n:])
	if err != nil {
		return fmt.Errorf("decode value: %w", err)
	}
	if n+n2 != len(b) {
		return fmt.Errorf("%w: %d trailing record bytes", runio.ErrCorrupt, len(b)-n-n2)
	}
	//erlint:ignore arenaretain engine-internal transient: the record aliases the block only until the group callback returns; sinks clone what they retain
	dst.Key, dst.Value = k, v
	return nil
}

// mergeSource streams one pre-sorted sequence of records into the
// external merge. next fills dst and reports the record's partition;
// ok=false means the source is exhausted.
type mergeSource[K, V any] interface {
	next(dst *Rec[K, V]) (part int32, ok bool, err error)
}

// segSource streams one partition segment of one run file.
type segSource[K, V any] struct {
	sr   *runio.SegmentReader
	dec  *recDecoder[K, V]
	part int32
}

func (s *segSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	b, err := s.sr.Next()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := s.dec.decode(b, dst); err != nil {
		return 0, false, err
	}
	return s.part, true, nil
}

// runSource streams a whole run file, segment by segment in partition
// order (the map-side combine merge reads every partition).
type runSource[K, V any] struct {
	f    *os.File
	info *runio.Info
	dec  *recDecoder[K, V]
	cur  int
	sr   *runio.SegmentReader
	part int32
}

func (s *runSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	for {
		if s.sr == nil {
			for s.cur < len(s.info.Segments) && s.info.Segments[s.cur].Records == 0 {
				s.cur++
			}
			if s.cur >= len(s.info.Segments) {
				return 0, false, nil
			}
			s.sr = runio.NewSegmentReader(s.f, s.info.Segments[s.cur], s.info.Path)
			s.part = int32(s.cur)
			s.cur++
		}
		b, err := s.sr.Next()
		if err == io.EOF {
			s.sr = nil
			continue
		}
		if err != nil {
			return 0, false, err
		}
		if err := s.dec.decode(b, dst); err != nil {
			return 0, false, err
		}
		return s.part, true, nil
	}
}

// sharedSegSource is segSource on the arena read path: records arrive
// as substrings of immutable blocks and decode without copying. The
// reader is embedded by value so a source costs one allocation total.
type sharedSegSource[K, V any] struct {
	sr   runio.SharedSegmentReader
	dec  *recDecoder[K, V]
	part int32
}

func (s *sharedSegSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	b, err := s.sr.Next()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := s.dec.decodeShared(b, dst); err != nil {
		return 0, false, err
	}
	return s.part, true, nil
}

// sharedRunSource is runSource on the arena read path.
type sharedRunSource[K, V any] struct {
	f      *os.File
	info   *runio.Info
	dec    *recDecoder[K, V]
	cur    int
	active bool
	sr     runio.SharedSegmentReader
	part   int32
}

func (s *sharedRunSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	for {
		if !s.active {
			for s.cur < len(s.info.Segments) && s.info.Segments[s.cur].Records == 0 {
				s.cur++
			}
			if s.cur >= len(s.info.Segments) {
				return 0, false, nil
			}
			s.sr.Init(s.f, s.info.Segments[s.cur], s.info.Path)
			s.active = true
			s.part = int32(s.cur)
			s.cur++
		}
		b, err := s.sr.Next()
		if err == io.EOF {
			s.active = false
			continue
		}
		if err != nil {
			return 0, false, err
		}
		if err := s.dec.decodeShared(b, dst); err != nil {
			return 0, false, err
		}
		return s.part, true, nil
	}
}

// bucketSource streams one in-memory tail bucket (reduce side: the
// partition is fixed, the bucket is already sorted).
type bucketSource[K, V any] struct {
	recs []Rec[K, V]
	part int32
	i    int
}

func (s *bucketSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	if s.i >= len(s.recs) {
		return 0, false, nil
	}
	*dst = s.recs[s.i]
	s.i++
	return s.part, true, nil
}

// tailSource streams the spiller's unspilled tail in (partition, key)
// order through the sortedPerm permutation (map-side combine merge).
type tailSource[K, V any] struct {
	recs  []Rec[K, V]
	parts []int32
	perm  []int32
	i     int
}

func (s *tailSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	if s.i >= len(s.perm) {
		return 0, false, nil
	}
	j := s.perm[s.i]
	*dst = s.recs[j]
	s.i++
	return s.parts[j], true, nil
}

// extMerger is the external counterpart of recMerger: a binary min-heap
// over merge sources keyed by (partition, record, source index). The
// source-index tiebreak is the (map task, run, tail) order the caller
// appended sources in — the stability guarantee, extended to disk runs.
type extMerger[I, K, V, O any] struct {
	st   *runState[I, K, V, O]
	heap []mergeItem[K, V]
}

type mergeItem[K, V any] struct {
	rec  Rec[K, V]
	part int32
	seq  int32
	src  mergeSource[K, V]
}

func newExtMerger[I, K, V, O any](st *runState[I, K, V, O], sources []mergeSource[K, V]) (*extMerger[I, K, V, O], error) {
	m := &extMerger[I, K, V, O]{st: st, heap: make([]mergeItem[K, V], 0, len(sources))}
	for i, src := range sources {
		it := mergeItem[K, V]{seq: int32(i), src: src}
		part, ok, err := src.next(&it.rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		it.part = part
		m.heap = append(m.heap, it)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *extMerger[I, K, V, O]) less(x, y *mergeItem[K, V]) bool {
	if x.part != y.part {
		return x.part < y.part
	}
	if c := m.st.cmpRec(&x.rec, &y.rec); c != 0 {
		return c < 0
	}
	return x.seq < y.seq
}

func (m *extMerger[I, K, V, O]) siftDown(i int) {
	h := m.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && m.less(&h[r], &h[l]) {
			s = r
		}
		if !m.less(&h[s], &h[i]) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// next pops the globally smallest remaining record and refills its
// source. ok=false once every source is drained.
func (m *extMerger[I, K, V, O]) next() (rec Rec[K, V], part int32, ok bool, err error) {
	if len(m.heap) == 0 {
		return rec, 0, false, nil
	}
	top := &m.heap[0]
	rec, part = top.rec, top.part
	p, more, err := top.src.next(&top.rec)
	if err != nil {
		return rec, part, false, err
	}
	if more {
		top.part = p
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap[last] = mergeItem[K, V]{} // drop source + record refs
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 1 {
		m.siftDown(0)
	}
	return rec, part, true, nil
}

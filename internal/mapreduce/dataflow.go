package mapreduce

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/runio"
)

// This file runs jobs: one driver (validate → map phase → weigh →
// reduce phase → collect/sink), one map-attempt body and one
// reduce-attempt body, whether the intermediate records stay in memory,
// spill to disk or live on workers. Where they reside is the run
// store's business (spill.go); what differs here between the local and
// the distributed run is only whether an attempt is run in this process
// or dispatched (remote.go), and that is one branch per phase.

// runState is one run's (or, on a worker, one job's) execution state:
// the comparator/group fast paths, the process-wide pooled scratch
// buffers of the job's types, the run store, and — on the driver — the
// phases' shared data and supervisors.
type runState[I, K, V, O any] struct {
	runStore[K, V]
	job   *Job[I, K, V, O]
	exact bool
	gbits int
	group func(a, b K) int

	outPool *slicePool[O] // pooled []O reduce-output buffers

	// The distributed run: the dispatcher attempts go to, the codecs
	// inputs and outputs cross the process boundary in (also bound on
	// the worker side), and the committed map tasks' runs as reduce
	// dispatches name them.
	remote      RemoteDispatcher
	ic          runio.Codec[I]
	oc          runio.Codec[O]
	replicas    []RemoteRun
	replicaOnce sync.Once
	replicaErr  error
	degradeOnce sync.Once

	// Driver state. mapOut is published per task by the map phase's
	// commit step; reduce output is buffered per attempt and drained to
	// the sink (or collected into reduceOut) only at commit — the
	// task-commit protocol.
	e         *Engine
	m         int
	input     [][]I
	res       *Result[I, O]
	sink      *outputSink[O]
	mapOut    []mapOutput[K, V]
	reduceOut [][]O

	// The supervisors are embedded, and the phases are pointer-shaped
	// views of this struct, so the fault-free path allocates nothing for
	// supervision.
	mapSup taskSupervisor[mapOutput[K, V]]
	redSup taskSupervisor[reduceOut[O]]
}

// newRunState binds a job's comparator, grouping and pools. The result
// runs attempts in memory; the driver's configure and the worker's
// NewRemoteRunnable add what their side needs.
func newRunState[I, K, V, O any](j *Job[I, K, V, O]) *runState[I, K, V, O] {
	st := &runState[I, K, V, O]{
		job:     j,
		exact:   j.Coding.Exact,
		gbits:   j.Coding.GroupBits,
		group:   j.Group,
		outPool: outPoolFor[O](),
	}
	if st.group == nil {
		st.group = j.Compare
	}
	st.r, st.part, st.encode, st.pools = j.NumReduceTasks, j.Partition, j.Coding.Encode, poolFor[K, V]()
	if !st.exact {
		st.tie = j.Compare
	}
	return st
}

// bindWireCodecs binds all four codecs: K and V for run files, I and O
// because inputs and outputs cross the process boundary.
func (st *runState[I, K, V, O]) bindWireCodecs() (err error) {
	if st.ic, err = lookupCodec[I](st.job.Name, "input"); err != nil {
		return err
	}
	if st.oc, err = lookupCodec[O](st.job.Name, "output"); err != nil {
		return err
	}
	return st.bindCodecs(st.job.Name)
}

// configure applies the engine's settings to a driver-side run state:
// where intermediate records reside, and what that requires.
func (st *runState[I, K, V, O]) configure(e *Engine) error {
	st.e, st.obs, st.tmpDir, st.remote = e, e.Obs, e.TmpDir, e.Remote
	switch {
	case st.remote != nil:
		return st.bindWireCodecs()
	case e.SpillBudget > 0:
		st.budget = e.SpillBudget
		return st.bindCodecs(st.job.Name)
	}
	return nil
}

// cmpRec is the record comparator of the merge heap: binary codes
// first, the struct comparator only on code ties (never, for exact
// codings) — the order the map-side sort (sortedEntries) leaves within
// each partition.
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

// errBadPartition reports a Partition result outside [0, r) — a
// deterministic user-logic bug that re-running cannot fix.
func errBadPartition(p, r int) error {
	return Fatal(fmt.Errorf("partition function returned %d for %d reduce tasks", p, r))
}

// run is the one driver.
func (j *Job[I, K, V, O]) run(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m, r := len(input), j.NumReduceTasks
	if err := j.validate(m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	st := newRunState(j)
	if err := st.configure(e); err != nil {
		return nil, err
	}
	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
	}
	st.m, st.input, st.res, st.sink = m, input, res, sink
	st.mapOut = make([]mapOutput[K, V], m)
	st.reduceOut = make([][]O, r)
	if st.remote != nil {
		st.replicas = make([]RemoteRun, m)
	}
	// Whatever the run put on disk dies with it on every exit path —
	// cancellation included — and so do the committed map tasks' open
	// spill fds, which the reduce phase reads through.
	defer st.closeRuns()
	st.jobID = e.beginJob(j.Name)
	defer e.endJob(st.jobID)

	st.mapSup.init(e, MapTask, st.jobID, mapPhase[I, K, V, O]{st})
	stats, err := st.mapSup.supervise(ctx, m)
	if err := st.endPhase(ctx, stats, err); err != nil {
		return nil, err
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	st.redSup.init(e, ReduceTask, st.jobID, reducePhase[I, K, V, O]{st})
	st.redSup.weigh = st.reduceRecords
	stats, err = st.redSup.supervise(ctx, r)
	if err := st.endPhase(ctx, stats, err); err != nil {
		return nil, err
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: output sink: %w", j.Name, err)
		}
	}
	var total int
	for _, out := range st.reduceOut {
		total += len(out)
	}
	res.Output = make([]O, 0, total)
	for _, out := range st.reduceOut {
		res.Output = append(res.Output, out...)
		putOutBuf(st.outPool, out)
	}
	return res, nil
}

// endPhase books a finished phase's attempt accounting and turns its
// outcome into the run's error: cancellation first, then the first
// failed task.
func (st *runState[I, K, V, O]) endPhase(ctx context.Context, stats attemptStats, err error) error {
	st.res.addStats(stats)
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: %w", st.job.Name, err)
	}
	return nil
}

// closeRuns releases the committed map outputs (open fds, pooled bucket
// arrays — putRecBuf clears the records, so pooled buffers never pin
// keys or values) and removes the run directory.
func (st *runState[I, K, V, O]) closeRuns() {
	for i := range st.mapOut {
		st.mapOut[i].release(st.pools)
	}
	st.removeRunDir()
}

// reduceRecords weighs a reduce task by the records the committed map
// outputs hold for it, in runs and tail buckets alike.
func (st *runState[I, K, V, O]) reduceRecords(task int) int64 {
	var records int64
	for i := range st.mapOut {
		out := &st.mapOut[i]
		for _, info := range out.runs {
			records += info.Segments[task].Records
		}
		if out.buckets != nil {
			records += int64(len(out.buckets[task]))
		}
	}
	return records
}

// mapOutput is one map attempt's shuffle-ready output, private to the
// attempt until the supervisor commits it: zero or more sorted runs,
// all sections of one file, plus the in-memory tail, bucketed by reduce
// partition and sorted.
type mapOutput[K, V any] struct {
	runs []*runio.Info
	// file is what the runs are read through: the attempt's spill file,
	// still open from writing, or nil for a replica until a degraded
	// reduce opens it.
	file    *os.File
	buckets [][]Rec[K, V]
	flat    []Rec[K, V] // the buckets' shared backing array (pooled)
	metrics TaskMetrics
	// dir is the attempt's spill directory ("" when it never spilled);
	// replica names a distributed attempt's run, a file of its own.
	dir     string
	replica RemoteRun
}

// release closes the output's fd and recycles its bucket array.
func (out *mapOutput[K, V]) release(pools *recPools[K, V]) {
	if out.file != nil {
		out.file.Close()
	}
	pools.putRecBuf(out.flat)
}

// discard is release for an output that will never be committed: its
// files go too.
func (out *mapOutput[K, V]) discard(pools *recPools[K, V]) {
	out.release(pools)
	if out.dir != "" {
		os.RemoveAll(out.dir)
	}
	if out.replica.Path != "" {
		os.Remove(out.replica.Path)
	}
}

// reduceOut is one reduce attempt's private output.
type reduceOut[O any] struct {
	out     []O
	metrics TaskMetrics
}

// mapPhase is the map phase's taskOps.
type mapPhase[I, K, V, O any] struct{ *runState[I, K, V, O] }

func (p mapPhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (mapOutput[K, V], error) {
	if p.remote != nil {
		return p.remoteMapAttempt(actx, hook, task, attempt)
	}
	return p.runMapAttempt(actx, hook, task, attempt, p.m, p.input[task])
}

func (p mapPhase[I, K, V, O]) commitTask(task int, out mapOutput[K, V]) error {
	if out.dir != "" {
		// Adopt the attempt's spill directory under the task's final
		// name; the rename is the commit point for the on-disk runs. The
		// spill file's open fd survives it.
		final := filepath.Join(filepath.Dir(out.dir), fmt.Sprintf("m%04d", task))
		if err := os.Rename(out.dir, final); err != nil {
			out.discard(p.pools)
			return fmt.Errorf("adopt spill dir: %w", err)
		}
		for _, info := range out.runs {
			info.Path = filepath.Join(final, filepath.Base(info.Path))
		}
	}
	out.metrics.Kind = MapTask
	out.metrics.Index = task
	p.res.MapMetrics[task] = out.metrics
	p.mapOut[task] = out
	if p.remote != nil {
		p.replicas[task] = out.replica
	}
	return nil
}

// reducePhase is the reduce phase's taskOps.
type reducePhase[I, K, V, O any] struct{ *runState[I, K, V, O] }

func (p reducePhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (reduceOut[O], error) {
	if p.remote != nil {
		return p.remoteReduceAttempt(actx, hook, task, attempt)
	}
	return p.runReduceAttempt(actx, hook, task, attempt, p.m, p.reduceInputs(task))
}

func (p reducePhase[I, K, V, O]) commitTask(task int, out reduceOut[O]) error {
	out.metrics.Kind = ReduceTask
	out.metrics.Index = task
	p.res.ReduceMetrics[task] = out.metrics
	if p.sink != nil {
		p.sink.writeAll(out.out)
		putOutBuf(p.outPool, out.out)
		return nil
	}
	p.reduceOut[task] = out.out
	return nil
}

// reduceInputs lists reduce task idx's share of every committed map
// output in merge order: map task by map task.
func (st *runState[I, K, V, O]) reduceInputs(idx int) []reduceInput[K, V] {
	n := len(st.mapOut)
	for i := range st.mapOut {
		n += len(st.mapOut[i].runs)
	}
	inputs := make([]reduceInput[K, V], 0, n)
	for i := range st.mapOut {
		out := &st.mapOut[i]
		var bucket []Rec[K, V]
		if out.buckets != nil {
			bucket = out.buckets[idx]
		}
		inputs = appendInputs(inputs, idx, out.runs, out.file, bucket)
	}
	return inputs
}

// appendInputs appends one map task's share of partition p in merge
// order: its runs' non-empty segments in run order, all read through f,
// then its in-memory tail bucket.
func appendInputs[K, V any](inputs []reduceInput[K, V], p int, runs []*runio.Info, f *os.File, bucket []Rec[K, V]) []reduceInput[K, V] {
	for _, info := range runs {
		if seg := info.Segments[p]; seg.Records > 0 {
			inputs = append(inputs, reduceInput[K, V]{SegmentSource: SegmentSource{R: f, Seg: seg, Path: info.Path}})
		}
	}
	if len(bucket) > 0 {
		inputs = append(inputs, reduceInput[K, V]{bucket: bucket})
	}
	return inputs
}

// runMapAttempt is the one map-attempt body: run the mapper over the
// task's input into a spiller and sort what is left in memory into the
// tail buckets.
func (st *runState[I, K, V, O]) runMapAttempt(actx context.Context, hook *taskHook, idx, attempt, m int, input []I) (out mapOutput[K, V], err error) {
	// Declared before recoverAttempt so it runs after it (LIFO): by the
	// time the attempt's files and buffers are released, a recovered
	// panic has already been translated into err.
	var sp *spiller[K, V]
	defer func() {
		if err != nil {
			sp.discard()
			out.discard(st.pools)
		}
	}()
	defer recoverAttempt(&err)
	sp = st.newSpiller(&out.dir, idx, attempt, len(input), &out.metrics, hook)
	if err := hook.fire(FaultTaskStart); err != nil {
		return out, err
	}
	metrics := &out.metrics
	ctx := &MapContext[I, K, V]{metrics: metrics, spill: sp, hook: hook}
	mapper := st.job.NewMapper()
	mapper.Configure(m, st.r, idx)
	// Attempt cancellation (a per-attempt timeout, a cancelled run) is
	// observed between input records; the gate keeps background-context
	// runs free of per-record checks.
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
	out.runs, out.file = sp.takeFile()
	out.buckets, out.flat, err = st.sortTail(sp.takeRecs())
	return out, err
}

// sortTail turns one map task's in-memory output into its tail: the
// records gathered in sorted order (sortedEntries) into one flat array,
// cut into one bucket per reduce partition, so the reduce-side merge
// only has to interleave pre-sorted inputs — the Hadoop spill-file
// model. It takes ownership of recs (the buffer is recycled); the
// returned flat backing array must be recycled by the caller once the
// buckets are drained.
func (st *runState[I, K, V, O]) sortTail(recs []Rec[K, V]) (buckets [][]Rec[K, V], flat []Rec[K, V], err error) {
	entries, err := st.sortedEntries(recs)
	if err != nil {
		return nil, nil, err
	}
	// The buckets' shared backing array comes from the record pool (a
	// previous run's bucket array, recycled when that run ended).
	flat = st.pools.getRecBuf()
	if cap(flat) < len(recs) {
		flat = make([]Rec[K, V], len(recs))
	}
	flat = flat[:len(recs)]
	for i, e := range entries {
		flat[i] = recs[e.idx]
	}
	buckets = make([][]Rec[K, V], st.r)
	for lo := 0; lo < len(entries); {
		p, hi := entries[lo].part, lo+1
		for hi < len(entries) && entries[hi].part == p {
			hi++
		}
		buckets[p] = flat[lo:hi:hi]
		lo = hi
	}
	putScratch(&sortEntryPool, entries)
	st.pools.putRecBuf(recs)
	return buckets, flat, nil
}

// runReduceAttempt is the one reduce-attempt body: merge the task's
// pre-sorted inputs — given in (map task, run, tail) order, the merge
// tiebreak and therefore the stability guarantee — and call Reduce once
// per key group. It serves the local run, the distributed worker, and
// the master running a dispatched attempt itself.
func (st *runState[I, K, V, O]) runReduceAttempt(actx context.Context, hook *taskHook, idx, attempt, m int, inputs []reduceInput[K, V]) (rout reduceOut[O], err error) {
	metrics := &rout.metrics
	ctx := &ReduceContext[O]{metrics: metrics, hook: hook}
	var mg merger[I, K, V, O]
	mg.init(st, actx)
	// Pooled buffers go back on every exit path; the output buffer only
	// when no one is going to read it. Declared before recoverAttempt so
	// it runs after it (LIFO) and sees a recovered panic as err.
	defer func() {
		mg.release()
		if err != nil {
			putOutBuf(st.outPool, ctx.out)
		}
	}()
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return rout, err
	}
	ctx.out = getOutBuf[O](st.outPool)
	reducer := st.job.NewReducer()
	reducer.Configure(m, st.r, idx)
	for i := range inputs {
		metrics.InputRecords += inputs[i].records()
	}

	if err := hook.fire(FaultMerge); err != nil {
		return rout, err
	}
	if st.obs != nil {
		st.recordMerge(obs.EvBegin, idx, attempt, metrics.InputRecords)
		defer st.recordMerge(obs.EvEnd, idx, attempt, metrics.InputRecords)
	}
	if err := mg.reset(inputs, metrics); err != nil {
		return rout, err
	}
	for {
		group, err := mg.nextGroup()
		if err != nil {
			return rout, err
		}
		if len(group) == 0 {
			break
		}
		st.emitGroup(ctx, reducer, group)
	}
	rout.out = ctx.out
	return rout, nil
}

// recordMerge emits a merge-span event carrying the run's job identity.
// Callers guard on st.obs.
func (st *runState[I, K, V, O]) recordMerge(typ obs.EventType, task, attempt int, arg int64) {
	st.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KMerge, Phase: obs.PhaseReduce, Job: st.jobID,
		Task: int32(task), Attempt: int32(attempt), Arg: arg,
	})
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

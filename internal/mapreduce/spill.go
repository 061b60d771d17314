package mapreduce

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/runio"
)

// This file is the run store: the one place that knows where a typed
// job's intermediate records reside. Map output is one thing — per map
// task, zero or more sorted ERN1 runs plus an in-memory tail of sorted
// buckets — and the three ways of running a job differ only in how much
// of it is in which half:
//
//   - in memory (Engine.SpillBudget == 0): the tail is everything and
//     nothing ever spills; the spiller is a plain append and the run
//     touches no filesystem;
//   - out of core (SpillBudget > 0): the spiller encodes each record
//     once at emit time (runio codecs; exact byte-denominated budget
//     accounting), and whenever the encoded bytes reach the budget it
//     stable-sorts the batch by (reduce partition, key) — binary key
//     code first, like every sort in the engine — and appends it as one
//     run to the attempt's spill file;
//   - distributed (Engine.Remote): the same attempt bodies execute on a
//     worker, which hands its whole output back as a single run; the
//     master keeps a replica file per map task (remote.go).
//
// A reducer merges, per map task, the partition's segment of every run
// in run order and then the tail bucket. Runs are temporal segments of
// one task's output, so that order reproduces the task's emission order
// for equal keys: the stability tiebreak extends from (key, map task)
// to (key, map task, run), and the merged stream is identical to the
// all-in-memory sort. Segments are read through whatever io.ReaderAt
// holds the run — the map task's still-open spill fd (a run is never
// reopened), a replica file, or an HTTP range reader.
//
// Temp-file lifecycle: the run's mr-spill-* directory under
// Engine.TmpDir is created at the first spill (or first replica) and
// removed when the run returns, on every exit path. Each map *attempt*
// spills into an attempt-scoped subdirectory (m0007-a001/), also
// created at its first spill; the supervisor's commit step adopts the
// directory by renaming it to the task's final name (m0007/), and a
// failed or superseded attempt's directory is reaped instead — so
// concurrent attempts of one task never collide and a retried task
// never leaves stale runs behind.

// runStore carries what the spillers, decoders and merge sources of one
// run need: the job's partition and record order, the residency policy
// (budget, temp dir) and the codecs. It is the (K, V)-typed half of
// runState, split out because map contexts cannot name the job's
// output type.
type runStore[K, V any] struct {
	r    int
	part func(K, int) int
	// encode is the job's key coding (nil without one): Emit codes each
	// emitted key with it, and the decoder recodes each key read back
	// from a run, since runs store no codes.
	encode func(K) Code
	// tie orders two keys whose binary codes are equal; nil when equal
	// codes mean equal keys (an Exact coding).
	tie   func(a, b K) int
	pools *recPools[K, V]

	// obs/jobID carry the run's observability identity into spill and
	// merge spans. nil/0 when observability is off — including always on
	// the worker side of distributed execution, where tracing happens at
	// the dist layer instead.
	obs   *obs.Observer
	jobID uint32

	// budget > 0 bounds, in encoded bytes, what a map task buffers
	// before it spills a run; 0 keeps everything in memory.
	budget int64
	tmpDir string

	// The codecs are bound (bindCodecs) only when records can leave
	// memory.
	kc runio.Codec[K]
	vc runio.Codec[V]

	dirOnce sync.Once
	dir     string
	dirErr  error
}

// runDir returns the run's temp directory, creating it on first use.
func (rs *runStore[K, V]) runDir() (string, error) {
	rs.dirOnce.Do(func() {
		if rs.tmpDir != "" {
			if err := os.MkdirAll(rs.tmpDir, 0o755); err != nil {
				rs.dirErr = fmt.Errorf("create tmp dir: %w", err)
				return
			}
		}
		if rs.dir, rs.dirErr = os.MkdirTemp(rs.tmpDir, "mr-spill-*"); rs.dirErr != nil {
			rs.dirErr = fmt.Errorf("create spill dir: %w", rs.dirErr)
		}
	})
	return rs.dir, rs.dirErr
}

// removeRunDir reaps the run directory if the run ever created one; the
// driver calls it once every attempt has been joined.
func (rs *runStore[K, V]) removeRunDir() {
	if rs.dir != "" {
		os.RemoveAll(rs.dir)
	}
}

// lookupCodec resolves the registered runio codec of one of a job's
// record types, or explains which registration is missing.
func lookupCodec[T any](job, role string) (runio.Codec[T], error) {
	c, ok := runio.Lookup[T]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: no runio codec registered for %s type %T, which spilling and distributed execution need (runio.Register it in the type's package)", job, role, *new(T))
	}
	return c, nil
}

// bindCodecs looks up the key and value codecs.
func (rs *runStore[K, V]) bindCodecs(job string) (err error) {
	if rs.kc, err = lookupCodec[K](job, "key"); err != nil {
		return err
	}
	rs.vc, err = lookupCodec[V](job, "value")
	return err
}

// appendRec appends one record's on-disk form: key ‖ value. The key
// code is not stored; the decoder recomputes it from the key.
func (rs *runStore[K, V]) appendRec(dst []byte, rec *Rec[K, V]) []byte {
	dst = rs.kc.Append(dst, rec.Key)
	return rs.vc.Append(dst, rec.Value)
}

// writeRun persists one map attempt's bucketed output as a single
// sorted ERN1 run of its own (one segment per reduce partition) — how a
// worker, or the master running a dispatched attempt itself, hands map
// output back.
func (rs *runStore[K, V]) writeRun(path string, buckets [][]Rec[K, V]) (*runio.Info, error) {
	w, err := runio.Create(path, len(buckets), 0)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for p, b := range buckets {
		for i := range b {
			buf = rs.appendRec(buf[:0], &b[i])
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

// ---- the spiller ----

// spiller buffers one map attempt's emitted records. With a budget it also keeps them encoded — once, at emit time, so the
// accounting is exact and nothing is re-encoded at spill — and flushes a
// sorted run whenever the encoded bytes reach the budget. Without one,
// add is a plain append: the encode is what only a task that can spill
// needs.
type spiller[K, V any] struct {
	rs      *runStore[K, V]
	metrics *TaskMetrics
	hook    *taskHook
	// task/attempt identify the owning attempt in spill trace spans and
	// in its spill directory's name; dir points at that directory's
	// path in the attempt's output, set at the first spill.
	task    int
	attempt int
	dir     *string

	recs  []Rec[K, V]
	enc   []byte
	spans []extSpan
	runs  []*runio.Info
	err   error // sticky: first spill failure stops the task

	// All of the attempt's runs are appended as sections of one spill
	// file sharing one fd (runio.NewRunWriter), created lazily at the
	// first spill. The fd is kept open — the reduce phase reads segments
	// through it via pread — so a run costs
	// zero file-lifecycle syscalls beyond its writes, instead of the
	// create/close/reopen/unlink per run that dominated small-budget
	// profiles.
	f       *os.File
	path    string
	fileOff int64
}

type extSpan struct{ off, end int64 }

// newSpiller starts one map attempt's buffer. sizeHint is the attempt's
// input size: a task that keeps everything in memory and finds the pool
// empty (the first tasks of a process) starts with that capacity,
// instead of growing to it through a series of ever larger copies.
func (rs *runStore[K, V]) newSpiller(dir *string, task, attempt, sizeHint int, metrics *TaskMetrics, hook *taskHook) *spiller[K, V] {
	recs := rs.pools.getRecBuf()
	if rs.budget == 0 && cap(recs) == 0 {
		recs = make([]Rec[K, V], 0, sizeHint)
	}
	return &spiller[K, V]{
		rs: rs, metrics: metrics, hook: hook,
		task: task, attempt: attempt, dir: dir,
		recs: recs,
	}
}

// add appends one record, spilling the buffered batch when the encoded
// bytes reach the budget. Errors are sticky (checked by the task after
// the map loop) because Emit has no error channel.
func (sp *spiller[K, V]) add(rec Rec[K, V]) {
	rs := sp.rs
	if rs.budget == 0 {
		sp.recs = append(sp.recs, rec)
		return
	}
	if sp.err != nil {
		return
	}
	off := int64(len(sp.enc))
	sp.enc = rs.appendRec(sp.enc, &rec)
	sp.spans = append(sp.spans, extSpan{off: off, end: int64(len(sp.enc))})
	sp.recs = append(sp.recs, rec)
	if int64(len(sp.enc)) >= rs.budget {
		sp.err = sp.spill()
	}
}

// takeRecs hands the buffered tail to the caller and detaches it from
// the spiller (the encoded copy is dropped).
func (sp *spiller[K, V]) takeRecs() []Rec[K, V] {
	recs := sp.recs
	sp.recs, sp.enc, sp.spans = nil, nil, nil
	return recs
}

// takeFile hands the spilled runs and their open spill file to the
// attempt's output, which closes the fd at commit/discard time.
func (sp *spiller[K, V]) takeFile() ([]*runio.Info, *os.File) {
	f := sp.f
	sp.f, sp.path = nil, ""
	return sp.runs, f
}

// discard releases whatever the spiller of a failed attempt still owns.
// Idempotent, and a no-op on a spiller that never came to be.
func (sp *spiller[K, V]) discard() {
	if sp == nil {
		return
	}
	if sp.f != nil {
		sp.f.Close()
		os.Remove(sp.path)
		sp.f = nil
	}
	sp.rs.pools.putRecBuf(sp.takeRecs())
}

// recordSpill emits a spill-span event with the owning attempt's
// identity. Callers guard on rs.obs.
func (sp *spiller[K, V]) recordSpill(typ obs.EventType, arg int64) {
	sp.rs.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KSpill, Phase: obs.PhaseMap, Job: sp.rs.jobID,
		Task: int32(sp.task), Attempt: int32(sp.attempt), Arg: arg,
	})
}

// openFile creates the attempt's spill directory (and the run's
// directory, if this is the run's first spill) and the spill file in it.
func (sp *spiller[K, V]) openFile() error {
	root, err := sp.rs.runDir()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, fmt.Sprintf("m%04d-a%03d", sp.task, sp.attempt))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return fmt.Errorf("create spill dir: %w", err)
	}
	*sp.dir = dir
	path := filepath.Join(dir, "spill.runs")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create spill file: %w", err)
	}
	sp.f, sp.path = f, path
	return nil
}

// spill writes the buffered batch as one sorted run and resets the
// buffers (capacity retained: the next batch will be about as large).
func (sp *spiller[K, V]) spill() error {
	if len(sp.recs) == 0 {
		return nil
	}
	if err := sp.hook.fire(FaultSpill); err != nil {
		return err
	}
	rs := sp.rs
	if rs.obs != nil {
		sp.recordSpill(obs.EvBegin, int64(len(sp.enc)))
		// Arg mirrors the begin event's buffered-byte count; the span's
		// duration covers the sort and the run write together.
		defer sp.recordSpill(obs.EvEnd, int64(len(sp.enc)))
	}
	entries, err := rs.sortedEntries(sp.recs)
	if err != nil {
		return err
	}
	defer putScratch(&sortEntryPool, entries)
	if sp.f == nil {
		if err := sp.openFile(); err != nil {
			return err
		}
	}
	w, err := runio.NewRunWriter(sp.f, sp.fileOff, rs.r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		s := sp.spans[e.idx]
		if err := w.Append(int(e.part), sp.enc[s.off:s.end]); err != nil {
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
	if o := rs.obs; o != nil {
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

// ---- reading runs back: decoder, merge sources, the merge heap ----

// recDecoder decodes one on-disk record (key ‖ value) into a Rec and
// recomputes its key code. Decoded strings alias the reader's immutable
// blocks (codec contract).
type recDecoder[K, V any] struct {
	encode func(K) Code
	kdec   func(string) (K, int, error)
	vdec   func(string) (V, int, error)
}

// newRecDecoder builds the per-attempt decoder; the decode functions
// are stateful (arenas) and single-goroutine, hence one decoder per
// task attempt, shared across that attempt's sources.
func (rs *runStore[K, V]) newRecDecoder() *recDecoder[K, V] {
	return &recDecoder[K, V]{encode: rs.encode, kdec: rs.kc.NewDecoder(), vdec: rs.vc.NewDecoder()}
}

func (d *recDecoder[K, V]) decode(b string, dst *Rec[K, V]) error {
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
	var code Code
	if d.encode != nil {
		code = d.encode(k)
	}
	// An engine-internal transient: the record aliases the block only
	// until the group callback returns; sinks clone what they retain.
	dst.code, dst.Key, dst.Value = code, k, v
	return nil
}

// SegmentSource locates one map task's segment of one sorted run for a
// reduce attempt. R is an open file or an HTTP range reader; runio's
// segment readers bound every read to Seg.
type SegmentSource struct {
	R    io.ReaderAt
	Seg  runio.Segment
	Path string // names the run in corruption errors
}

// reduceInput is one pre-sorted input of a merge: one partition segment
// of an ERN1 run, or — when bucket is non-nil — a map task's in-memory
// tail bucket.
type reduceInput[K, V any] struct {
	SegmentSource
	bucket []Rec[K, V]
}

func (in *reduceInput[K, V]) records() int64 {
	if in.bucket != nil {
		return int64(len(in.bucket))
	}
	return in.Seg.Records
}

// mergeSource streams one pre-sorted sequence of records into the merge
// heap. next returns the source's next record, valid until the call
// after, or nil once the source is exhausted.
type mergeSource[K, V any] interface {
	next() (*Rec[K, V], error)
}

// bucketSource streams one in-memory tail bucket; its records are handed
// out in place.
type bucketSource[K, V any] struct {
	recs []Rec[K, V]
}

func (s *bucketSource[K, V]) next() (*Rec[K, V], error) {
	if len(s.recs) == 0 {
		return nil, nil
	}
	rec := &s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// segSource streams one partition segment of one run: records arrive
// as substrings of immutable blocks and decode without copying. The
// reader is embedded by value so the sources of one merge are one slab.
type segSource[K, V any] struct {
	sr  runio.SegmentReader
	dec *recDecoder[K, V]
	cur Rec[K, V]
}

func (s *segSource[K, V]) next() (*Rec[K, V], error) {
	b, err := s.sr.Next()
	if err == io.EOF {
		return nil, nil
	}
	if err == nil {
		err = s.dec.decode(b, &s.cur)
	}
	return &s.cur, err
}

// merger is the engine's one k-way merge of Recs: a binary min-heap of
// sources keyed by (head record, source index), streamed out one key
// group at a time. The source-index tiebreak is the order the inputs
// are listed in — (map task, run, tail) — which makes the merged stream
// identical to concatenating the inputs in that order and stable-
// sorting: the Hadoop merge semantics BlockSplit's reduce function
// depends on (see DESIGN.md). With a binary key coding, every heap
// comparison is one or two uint64 compares.
//
// Heads are pointers — into the bucket for in-memory sources, at the
// source's decode slot otherwise — so a record is copied exactly once,
// into the group buffer. A merger lives on its attempt's stack and its
// sources in per-kind slabs, so a merge allocates a handful of times
// however many inputs it has.
type merger[I, K, V, O any] struct {
	st   *runState[I, K, V, O]
	heap []mergeItem[K, V]
	// advance is set once the top's head has been consumed: its source
	// moves on at the next peek, not before — the head must stay valid
	// while the caller still reads it.
	advance bool
	// group is the buffer nextGroup reuses; used is the most records it
	// has held, the prefix release must clear.
	group []Rec[K, V]
	used  int

	// Attempt cancellation is polled every cancelCheckMask+1 records,
	// and only when the context is cancellable at all.
	actx  context.Context
	check bool
	n     int

	dec     *recDecoder[K, V]
	buckets []bucketSource[K, V]
	segs    []segSource[K, V]
}

type mergeItem[K, V any] struct {
	head *Rec[K, V]
	src  mergeSource[K, V]
	seq  int32
}

func (mg *merger[I, K, V, O]) init(st *runState[I, K, V, O], actx context.Context) {
	mg.st, mg.actx, mg.check = st, actx, actx.Done() != nil
}

// release returns the pooled group buffer; deferred by every merging
// attempt body, so it runs on the error and cancel paths too.
func (mg *merger[I, K, V, O]) release() {
	mg.st.pools.putRecBuf(mg.group[:mg.used])
	mg.group, mg.used = nil, 0
}

// resized returns s with length n, reallocating only when it must: the
// heap holds pointers into the slabs, so they are sized before use and
// never grown by append.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset points the merger at a new set of inputs, given in tiebreak
// order, and primes the heap with each one's first record. Segment
// bytes count as read here, on the attempt's metrics and the obs
// counter alike.
func (mg *merger[I, K, V, O]) reset(inputs []reduceInput[K, V], metrics *TaskMetrics) error {
	st := mg.st
	nb := 0
	for i := range inputs {
		if inputs[i].bucket != nil {
			nb++
		}
	}
	mg.buckets = resized(mg.buckets, nb)
	if ns := len(inputs) - nb; ns > 0 {
		if mg.dec == nil {
			mg.dec = st.newRecDecoder()
		}
		mg.segs = resized(mg.segs, ns)
	}
	var spillRead *obs.Counter // nil-safe handle when observability is off
	if st.obs != nil {
		spillRead = st.obs.Engine.SpillBytesRead
	}
	if mg.group == nil {
		mg.group = st.pools.getRecBuf()
	}
	mg.heap = resized(mg.heap, len(inputs))[:0]
	mg.advance = false
	nb, ns := 0, 0
	for i := range inputs {
		in := &inputs[i]
		var src mergeSource[K, V]
		switch {
		case in.bucket != nil:
			mg.buckets[nb] = bucketSource[K, V]{recs: in.bucket}
			src = &mg.buckets[nb]
			nb++
		case in.Seg.Records == 0:
			continue
		default:
			s := &mg.segs[ns]
			s.dec = mg.dec
			s.sr.Init(in.R, in.Seg, in.Path)
			src = s
			ns++
		}
		if in.bucket == nil {
			metrics.SpillBytesRead += in.Seg.Len
			spillRead.Add(in.Seg.Len)
		}
		head, err := src.next()
		if err != nil {
			return err
		}
		if head != nil {
			mg.heap = append(mg.heap, mergeItem[K, V]{head: head, src: src, seq: int32(i)})
		}
	}
	for i := len(mg.heap)/2 - 1; i >= 0; i-- {
		mg.siftDown(i)
	}
	return nil
}

func (mg *merger[I, K, V, O]) less(x, y *mergeItem[K, V]) bool {
	if c := mg.st.cmpRec(x.head, y.head); c != 0 {
		return c < 0
	}
	return x.seq < y.seq
}

func (mg *merger[I, K, V, O]) siftDown(i int) {
	h := mg.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && mg.less(&h[r], &h[l]) {
			s = r
		}
		if !mg.less(&h[s], &h[i]) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// peek returns the globally smallest remaining record without consuming
// it, or nil once every source is drained.
func (mg *merger[I, K, V, O]) peek() (*Rec[K, V], error) {
	if mg.advance {
		mg.advance = false
		top := &mg.heap[0]
		head, err := top.src.next()
		if err != nil {
			return nil, err
		}
		if head != nil {
			top.head = head
		} else {
			last := len(mg.heap) - 1
			mg.heap[0] = mg.heap[last]
			mg.heap[last] = mergeItem[K, V]{} // drop source + record refs
			mg.heap = mg.heap[:last]
		}
		if len(mg.heap) > 1 {
			mg.siftDown(0)
		}
	}
	if len(mg.heap) == 0 {
		return nil, nil
	}
	return mg.heap[0].head, nil
}

// nextGroup returns the next key group of the merged stream — the
// records one reduce call receives, in merged order — or
// an empty slice once the inputs are drained. The slice is the merger's
// reused buffer: valid until the next call.
func (mg *merger[I, K, V, O]) nextGroup() ([]Rec[K, V], error) {
	group := mg.group[:0]
	var err error
	for {
		if mg.check && mg.n&cancelCheckMask == 0 && mg.actx.Err() != nil {
			err = mg.actx.Err()
			break
		}
		mg.n++
		var rec *Rec[K, V]
		if rec, err = mg.peek(); err != nil {
			break
		}
		if rec == nil || (len(group) > 0 && !mg.st.sameGroup(&group[0], rec)) {
			break
		}
		group = append(group, *rec)
		mg.advance = true
	}
	mg.group, mg.used = group, max(mg.used, len(group))
	if err != nil {
		return nil, err
	}
	return group, nil
}

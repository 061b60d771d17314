// Package obs is the engine's observability layer: a fixed-capacity
// task-timeline tracer and structured logging. The whole layer is
// optional — the recording entry point (Tracer.Record) is nil-safe,
// and engine code guards span construction behind a single nil check
// on the *Observer, so a run without an observer pays one pointer
// comparison per would-be event and allocates nothing.
//
// Design constraints, in order:
//
//  1. Recording must be allocation-free and lock-free: events are
//     fixed-size value structs written into a preallocated ring by an
//     atomic index claim; job names are interned to uint32 ids once per
//     run, outside the hot path.
//  2. Durations live here and only here. Task wall-clock times are
//     nondeterministic, so they must never leak into the engine's
//     TaskMetrics, which the differential tests compare byte-for-byte
//     across dataflows.
//  3. Export is offline: the buffer is read after the run and rendered
//     as NDJSON or Chrome trace_event JSON; the recorder itself never
//     formats anything.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType distinguishes span boundaries from point events.
type EventType uint8

const (
	EvBegin   EventType = iota // span start
	EvEnd                      // span end
	EvInstant                  // point event
)

// Kind identifies what a span or instant describes. Span kinds (job
// through dispatch) appear as Begin/End pairs; the rest are instants.
type Kind uint8

const (
	KJob          Kind = iota // one engine run of a named job
	KPhase                    // the map or reduce phase of a job
	KTask                     // one task: all attempts plus retry backoff
	KAttempt                  // one attempt of a task
	KSpill                    // external dataflow: one sorted run written to disk
	KMerge                    // k-way merge feeding a reduce pass
	KShuffleFetch             // one HTTP range read of remote map output
	KDispatch                 // master-side: one attempt posted to a worker
	KCommit                   // instant: a task's successful attempt committed
	KRetry                    // instant: attempt failed, retrying (Arg = backoff ns)
	KWorkerDeath              // instant: master declared a worker dead
	KReassign                 // instant: a dead worker's in-flight task freed for reassignment
	kindCount
)

var kindNames = [kindCount]string{
	"job", "phase", "task", "attempt", "spill", "merge", "shuffle-fetch",
	"dispatch", "commit", "retry", "worker-death", "reassign",
}

// String returns the stable lowercase name used by both exporters.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Phase values carried by events. Zero means "not phase-scoped" so the
// Event zero value is safely phase-less; engine code maps its TaskKind
// (map=0, reduce=1) through PhaseOf.
const (
	PhaseMap    uint8 = 1
	PhaseReduce uint8 = 2
)

var phaseNames = [3]string{"", "map", "reduce"}

// PhaseName returns "", "map", or "reduce".
func PhaseName(p uint8) string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseOf converts the engine's 0-based task kind to an event phase.
func PhaseOf(kind int) uint8 { return uint8(kind) + 1 }

// Event is one fixed-size trace record. No pointers, no strings: the
// job name is an interned id (Tracer.InternJob) and everything else is
// scalar, so recording never allocates and the ring is a flat array.
//
// TS is assigned by Record (nanoseconds since the tracer started).
// Worker 0 is the recording process itself (driver, master, or a
// worker's own view); master-side dispatch events carry the target
// worker's id, which becomes the Perfetto process lane.
type Event struct {
	TS      int64
	Type    EventType
	Kind    Kind
	Phase   uint8
	Job     uint32
	Task    int32
	Attempt int32
	Worker  int32
	Arg     int64
}

// Tracer records events into a preallocated buffer. Writers claim
// slots with one atomic add; there is no wraparound — once the buffer
// fills, further events are dropped and counted (drop-newest). That
// policy keeps a contiguous, well-ordered prefix of the run: every
// recorded End still has its Begin, which the invariant tests and the
// Chrome exporter's span pairing rely on. Overwrite-oldest would be
// friendlier to long-lived servers but tears pairs apart and admits
// torn reads from concurrent writers; a bigger buffer is the answer
// for long runs (Cap/Dropped make truncation visible).
type Tracer struct {
	start   time.Time
	buf     []Event
	next    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	jobs []string          // id -> name; jobs[0] = "" (unknown)
	ids  map[string]uint32 // name -> id
}

// DefaultTraceCapacity holds ~64k events (≈3 MB); a chaos-heavy
// distributed run of the smoke-test scale records a few thousand.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer with the given event capacity
// (DefaultTraceCapacity if n <= 0).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &Tracer{
		start: time.Now(),
		buf:   make([]Event, n),
		jobs:  []string{""},
		ids:   make(map[string]uint32),
	}
}

// Record stamps ev with the current time and appends it. Nil-safe,
// allocation-free, and wait-free apart from the clock read.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	ev.TS = int64(time.Since(t.start))
	t.buf[i] = ev
}

// InternJob maps a job name to a stable id for use in Event.Job. Call
// once per run at setup, not per event: it takes a mutex.
func (t *Tracer) InternJob(name string) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.jobs))
	t.jobs = append(t.jobs, name)
	t.ids[name] = id
	return id
}

// JobName resolves an interned id; unknown ids return "".
func (t *Tracer) JobName(id uint32) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.jobs) {
		return t.jobs[id]
	}
	return ""
}

// Events returns the recorded prefix in claim order (≈ chronological).
// Call after the run's goroutines have quiesced: the slice aliases the
// live buffer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// Len reports how many events are in the buffer; Dropped how many were
// discarded after it filled; Cap its capacity.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if n := t.next.Load(); n < int64(len(t.buf)) {
		return int(n)
	}
	return len(t.buf)
}

func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

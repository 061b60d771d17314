package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the task-attempt supervision layer. Every map and reduce
// task executes as a sequence of *attempts*: a panic or error inside one
// attempt fails only that attempt, and the RetryPolicy decides whether
// and when the task re-runs. A task's attempts run one at a time.
// Correctness under retries rests on a task-commit protocol: an attempt
// accumulates all of its observable output (records, metrics)
// privately and the supervisor publishes it atomically on
// commit, so a failed or retried attempt leaves no trace in the Result.
// See DESIGN.md ("Fault tolerance").

// Defaults of the zero-value RetryPolicy. They are deliberately small:
// the engine runs in-process, so "rack-local re-fetch" style backoffs
// would only slow tests down.
const (
	// DefaultMaxAttempts is the per-task attempt budget when
	// RetryPolicy.MaxAttempts is zero.
	DefaultMaxAttempts = 3
	// DefaultBaseBackoff/DefaultMaxBackoff bound the capped exponential
	// backoff between attempts.
	DefaultBaseBackoff = 2 * time.Millisecond
	DefaultMaxBackoff  = 250 * time.Millisecond
)

// RetryPolicy governs task re-execution. The zero value enables retries
// with the defaults above and disables per-attempt timeouts. Every
// attempt error is retried except errors marked with Fatal and
// run-context cancellation.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget per task (0 = DefaultMaxAttempts,
	// 1 = fail on the first error, Hadoop's mapred.map.max.attempts).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// before attempt n+1: base·2^(n-1) capped at MaxBackoff, then
	// jittered into [d/2, d] with a deterministic hash of
	// (phase, task, attempt) — retries of different tasks decohere
	// without a global randomness source.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// TaskTimeout, when > 0, bounds each attempt's wall-clock time. A
	// timed-out attempt fails with context.DeadlineExceeded, which is
	// retryable; task loops observe the deadline between input records.
	TaskTimeout time.Duration
}

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (p *RetryPolicy) baseBackoff() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return DefaultBaseBackoff
}

func (p *RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return DefaultMaxBackoff
}

// backoffFor returns the sleep before re-running a task after `failed`
// failed attempts: capped exponential growth with deterministic
// half-interval jitter (always in [d/2, d]).
func (p *RetryPolicy) backoffFor(phase TaskKind, task, failed int) time.Duration {
	d, cap := p.baseBackoff(), p.maxBackoff()
	for i := 1; i < failed && d < cap; i++ {
		d *= 2
	}
	if d > cap || d <= 0 {
		d = cap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	h := splitmix64(uint64(phase)<<62 ^ uint64(task)<<20 ^ uint64(failed))
	return half + time.Duration(h%uint64(half)+1)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed integer hash used for backoff jitter and the chaos
// hook's per-site fault decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TaskError is the terminal failure of one task: the phase and index it
// belongs to, the attempt that failed last, and the underlying cause.
// Both retry exhaustion and fatal (non-retryable) errors surface as a
// *TaskError inside the job-level error, so callers can errors.As it
// out and inspect where the run died.
type TaskError struct {
	Phase   TaskKind
	Task    int
	Attempt int
	Cause   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("%s task %d (attempt %d): %v", e.Phase, e.Task, e.Attempt, e.Cause)
}

func (e *TaskError) Unwrap() error { return e.Cause }

// fatalError marks an error as non-retryable.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Fatal marks err as terminal: an attempt failing with a
// Fatal-wrapped error fails its task on the spot, retry budget
// notwithstanding. The engine uses it for deterministic user-logic bugs
// (an out-of-range Partition function) that re-running cannot fix.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

func isFatal(err error) bool {
	var f *fatalError
	return errors.As(err, &f)
}

// FaultPoint identifies where in an attempt's lifecycle a FaultHook
// fires.
type FaultPoint int

const (
	// FaultTaskStart fires once when an attempt starts, before any user
	// code runs.
	FaultTaskStart FaultPoint = iota
	// FaultEmit fires on every Emit of the attempt's map or reduce
	// context.
	FaultEmit
	// FaultSpill fires before a map task over its spill budget writes a
	// sorted run to disk.
	FaultSpill
	// FaultMerge fires before a reduce merge starts consuming its
	// sources.
	FaultMerge
)

func (p FaultPoint) String() string {
	switch p {
	case FaultTaskStart:
		return "task-start"
	case FaultEmit:
		return "emit"
	case FaultSpill:
		return "spill"
	case FaultMerge:
		return "merge"
	}
	return fmt.Sprintf("FaultPoint(%d)", int(p))
}

// FaultHook injects deterministic faults for testing. It is called at
// the instrumented points of every attempt with the attempt's identity;
// a non-nil return value fails the attempt with that error (wrap with
// Fatal to make the failure terminal). ctx is the attempt's context —
// hooks that sleep (straggler injection) must select on ctx.Done() so a
// timed-out attempt ends promptly. Hooks run on task goroutines and
// must be safe for concurrent use.
type FaultHook func(ctx context.Context, phase TaskKind, task, attempt int, point FaultPoint) error

// taskHook binds the engine's FaultHook to one attempt's identity.
// Contexts carry a *taskHook (nil when no hook is installed), so fault
// injection costs one nil check per emit when disabled.
type taskHook struct {
	hook    FaultHook
	ctx     context.Context
	phase   TaskKind
	task    int
	attempt int
}

// fire invokes the hook at an error-returning point; nil receiver means
// no hook installed.
func (h *taskHook) fire(point FaultPoint) error {
	if h == nil {
		return nil
	}
	return h.hook(h.ctx, h.phase, h.task, h.attempt, point)
}

// fireEmit invokes the hook at an emit site. Emit has no error channel,
// so an injected error travels as an injectedFault panic, which
// recoverAttempt translates back into the attempt's error — exercising
// the same recovery path a panic in user code takes.
func (h *taskHook) fireEmit() {
	if h == nil {
		return
	}
	if err := h.hook(h.ctx, h.phase, h.task, h.attempt, FaultEmit); err != nil {
		panic(injectedFault{err: err})
	}
}

// injectedFault carries a hook-injected error through user stack frames.
type injectedFault struct{ err error }

// recoverAttempt is deferred at the top of every attempt runner: a panic
// in user Map/Close/Reduce code (or an injected fault) becomes the
// attempt's error instead of killing the process.
func recoverAttempt(err *error) {
	if p := recover(); p != nil {
		if f, ok := p.(injectedFault); ok {
			*err = f.err
			return
		}
		*err = fmt.Errorf("panic: %v", p)
	}
}

// cancelCheckMask gates the in-attempt cancellation/deadline polls: task
// loops check their context every (mask+1) records, and only when the
// context is cancellable at all.
const cancelCheckMask = 63

// attemptStats is one phase's attempt accounting, merged into
// Metrics after the phase completes.
type attemptStats struct {
	attempts int64
	retries  int64
}

// taskOps is the phase-specific half of the supervisor: how to run one
// attempt and publish its output. Implementations are passed by
// pointer, so the interface conversion never allocates — the dataflow's
// phases are pointer-shaped views of its runState, which also embeds
// both supervisors, so it pays zero allocations for supervision.
type taskOps[T any] interface {
	// runTaskAttempt executes one attempt. It must keep all observable
	// output private to the attempt and clean up its own resources on
	// error.
	runTaskAttempt(ctx context.Context, hook *taskHook, task, attempt int) (T, error)
	// commitTask publishes a successful attempt's output; it is called at
	// most once per task. A commit error is terminal for the task.
	commitTask(task int, out T) error
}

// taskSupervisor executes one phase's tasks as supervised attempt
// sequences. T is the attempt-private output type a successful attempt
// hands to commit. A supervisor is single-use: init it, run one phase
// through supervise, read stats.
type taskSupervisor[T any] struct {
	e           *Engine
	pol         *RetryPolicy
	phase       TaskKind
	maxAttempts int
	ops         taskOps[T]

	// obs mirrors e.Obs; nil disables every trace site below at the
	// cost of one nil check. jobID is the interned trace id of the
	// running job.
	obs   *obs.Observer
	jobID uint32

	stats attemptStats

	// weigh, when set, is a task's relative cost as known before the
	// phase starts; forEachTask starts the heaviest tasks first. Set
	// after init, which clears it.
	weigh func(task int) int64

	// First failed task in task order — the phase's reported error.
	// (Tracking the minimum beats an n-sized error slice: supervision
	// stays allocation-free on the fault-free path.)
	errMu     sync.Mutex
	firstErr  error
	firstTask int
}

// init prepares the supervisor for one phase. Kept separate from
// supervise so callers on the hot path can embed the supervisor in an
// existing allocation instead of constructing one per phase.
func (sv *taskSupervisor[T]) init(e *Engine, phase TaskKind, jobID uint32, ops taskOps[T]) {
	sv.e = e
	sv.pol = &e.Retry
	sv.phase = phase
	sv.maxAttempts = e.Retry.maxAttempts()
	sv.ops = ops
	sv.obs = e.Obs
	sv.jobID = jobID
	sv.firstTask = -1
	sv.firstErr = nil
	sv.weigh = nil
}

// record emits one trace event stamped with the supervisor's job and
// phase identity. Safe to call with observability off.
func (sv *taskSupervisor[T]) record(typ obs.EventType, kind obs.Kind, task, attempt int32, arg int64) {
	if sv.obs == nil {
		return
	}
	sv.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: kind,
		Phase: obs.PhaseOf(int(sv.phase)), Job: sv.jobID,
		Task: task, Attempt: attempt, Arg: arg,
	})
}

// supervise runs n tasks of the phase under the engine's RetryPolicy,
// with the same bounded parallelism as forEachTask. It returns the
// phase's attempt statistics and the first failed task's error in task
// order (a *TaskError, or the context error when the run was
// cancelled).
func (sv *taskSupervisor[T]) supervise(ctx context.Context, n int) (attemptStats, error) {
	if sv.obs != nil {
		sv.record(obs.EvBegin, obs.KPhase, -1, 0, int64(n))
		defer sv.record(obs.EvEnd, obs.KPhase, -1, 0, int64(n))
	}
	sv.e.forEachTask(ctx, n, sv.weigh, sv)
	return sv.stats, sv.firstErr
}

// runOne is the taskRunner hook forEachTask drives: it runs the task's
// retry loop and records the failure of the lowest-numbered failed task.
func (sv *taskSupervisor[T]) runOne(ctx context.Context, task int) {
	sv.record(obs.EvBegin, obs.KTask, int32(task), 0, 0)
	err := sv.runPlainTask(ctx, task)
	if sv.obs != nil {
		var failed int64
		if err != nil {
			failed = 1
		}
		sv.record(obs.EvEnd, obs.KTask, int32(task), 0, failed)
	}
	if err != nil {
		sv.errMu.Lock()
		if sv.firstTask == -1 || task < sv.firstTask {
			sv.firstTask, sv.firstErr = task, err
		}
		sv.errMu.Unlock()
	}
}

// runAttempt executes one attempt: per-attempt deadline, fault-hook
// binding, and attempt accounting.
func (sv *taskSupervisor[T]) runAttempt(ctx context.Context, task, attempt int) (T, error) {
	atomic.AddInt64(&sv.stats.attempts, 1)
	// The attempt-span count reconciles exactly with Metrics.Attempts:
	// both sit on this one code path.
	sv.record(obs.EvBegin, obs.KAttempt, int32(task), int32(attempt), 0)
	actx := ctx
	var cancel context.CancelFunc
	if sv.pol.TaskTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, sv.pol.TaskTimeout)
	}
	var hook *taskHook
	if sv.e.FaultHook != nil {
		hook = &taskHook{hook: sv.e.FaultHook, ctx: actx, phase: sv.phase, task: task, attempt: attempt}
	}
	out, err := sv.ops.runTaskAttempt(actx, hook, task, attempt)
	if cancel != nil {
		cancel()
	}
	if sv.obs != nil {
		var failed int64
		if err != nil {
			failed = 1
		}
		sv.record(obs.EvEnd, obs.KAttempt, int32(task), int32(attempt), failed)
	}
	return out, err
}

// runPlainTask is the task's retry loop: attempts run back-to-back with
// backoff until one commits, the budget is exhausted, the error is
// Fatal, or the run is cancelled.
func (sv *taskSupervisor[T]) runPlainTask(ctx context.Context, task int) error {
	for failed := 0; ; {
		attempt := failed + 1
		out, err := sv.runAttempt(ctx, task, attempt)
		if err == nil {
			if cerr := sv.ops.commitTask(task, out); cerr != nil {
				return &TaskError{Phase: sv.phase, Task: task, Attempt: attempt, Cause: cerr}
			}
			sv.record(obs.EvInstant, obs.KCommit, int32(task), int32(attempt), 0)
			return nil
		}
		if ctx.Err() != nil {
			// Run cancelled: the attempt's failure is a consequence, not
			// a task fault — surface the cancellation unclassified.
			return ctx.Err()
		}
		failed++
		if failed >= sv.maxAttempts || isFatal(err) {
			return &TaskError{Phase: sv.phase, Task: task, Attempt: attempt, Cause: err}
		}
		atomic.AddInt64(&sv.stats.retries, 1)
		backoff := sv.pol.backoffFor(sv.phase, task, failed)
		sv.record(obs.EvInstant, obs.KRetry, int32(task), int32(attempt), int64(backoff))
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
	}
}

// sleepCtx sleeps for d, returning false if ctx is done first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// addStats merges one phase's attempt accounting into the run metrics.
func (m *Metrics) addStats(s attemptStats) {
	m.Attempts += s.attempts
	m.Retries += s.retries
}

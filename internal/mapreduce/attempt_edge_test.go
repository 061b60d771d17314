package mapreduce_test

// Edge cases of the RetryPolicy contract that the main attempt tests
// leave implicit: a budget of exactly one attempt (fail-fast mode, no
// retry and no hidden extra attempts on the success path), the
// distinction between a per-attempt timeout (retryable) and run-context
// cancellation (terminal), and Fatal() short-circuiting one task's
// retry loop while sibling tasks of the same phase are still in flight.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

func TestMaxAttemptsOneFailsFast(t *testing.T) {
	for dname, where := range localResidencies {
		t.Run(dname, func(t *testing.T) {
			before := testleak.Snapshot()
			var starts atomic.Int64
			e, _ := engineFor(t, where, nil)
			e.Retry.MaxAttempts = 1
			e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
				if phase == mapreduce.ReduceTask && task == 2 && point == mapreduce.FaultTaskStart {
					starts.Add(1)
					return errors.New("transient, but the budget is 1")
				}
				return nil
			}
			_, err := wordJob(4, false).RunContext(context.Background(), e, wordInput(2))
			if err == nil {
				t.Fatal("MaxAttempts=1 run with a failing task succeeded")
			}
			testleak.Check(t, before)
			var te *mapreduce.TaskError
			if !errors.As(err, &te) || te.Attempt != 1 {
				t.Fatalf("err = %v, want a first-attempt TaskError", err)
			}
			if n := starts.Load(); n != 1 {
				t.Fatalf("failing task started %d attempts under MaxAttempts=1, want exactly 1", n)
			}
		})
	}
}

func TestMaxAttemptsOneCleanRunCountsSingleAttempts(t *testing.T) {
	const m, r = 3, 4
	before := testleak.Snapshot()
	e := &mapreduce.Engine{Parallelism: 2}
	e.Retry.MaxAttempts = 1
	res, err := wordJob(r, false).RunContext(context.Background(), e, wordInput(m))
	if err != nil {
		t.Fatal(err)
	}
	testleak.Check(t, before)
	// Exactly one attempt per task: no retries may hide behind a
	// fail-fast policy.
	if res.Attempts != m+r || res.Retries != 0 {
		t.Fatalf("Attempts/Retries = %d/%d, want %d/0", res.Attempts, res.Retries, m+r)
	}
}

// TestRunCancelIsTerminalNotRetried is the counterpart of
// TestTaskTimeoutRetries: an attempt killed by its per-attempt deadline
// is retried, but an attempt killed by the *run* context must fail the
// run immediately — retrying work the caller cancelled would be wrong
// twice over.
func TestRunCancelIsTerminalNotRetried(t *testing.T) {
	before := testleak.Snapshot()
	var starts atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	e := &mapreduce.Engine{Parallelism: 2}
	e.Retry.BaseBackoff = time.Microsecond
	e.FaultHook = func(hctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
		if phase == mapreduce.MapTask && task == 0 && point == mapreduce.FaultTaskStart {
			starts.Add(1)
			cancel() // cancel the run from inside the first attempt
			<-hctx.Done()
			return hctx.Err()
		}
		return nil
	}
	_, err := wordJob(3, false).RunContext(ctx, e, wordInput(2))
	cancel()
	testleak.Check(t, before)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("cancelled task started %d attempts, want 1 (cancellation is terminal)", n)
	}
}

func TestFatalShortCircuitsWhileSiblingsInFlight(t *testing.T) {
	const m = 6
	before := testleak.Snapshot()
	var fatalStarts, siblingStarts atomic.Int64
	e := &mapreduce.Engine{Parallelism: 3}
	e.Retry.MaxAttempts = 5
	e.Retry.BaseBackoff = time.Microsecond
	e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
		if phase != mapreduce.MapTask || point != mapreduce.FaultTaskStart {
			return nil
		}
		if task == 0 {
			fatalStarts.Add(1)
			return mapreduce.Fatal(errors.New("deterministic bug"))
		}
		// Keep the siblings demonstrably in flight when task 0 dies.
		siblingStarts.Add(1)
		tm := time.NewTimer(20 * time.Millisecond)
		defer tm.Stop()
		select {
		case <-tm.C:
		case <-ctx.Done():
		}
		return nil
	}
	_, err := wordJob(3, false).RunContext(context.Background(), e, wordInput(m))
	testleak.Check(t, before)
	var te *mapreduce.TaskError
	if !errors.As(err, &te) || te.Phase != mapreduce.MapTask || te.Task != 0 || te.Attempt != 1 {
		t.Fatalf("err = %v, want map task 0 failing on its first attempt", err)
	}
	if n := fatalStarts.Load(); n != 1 {
		t.Fatalf("fatal task started %d attempts with budget 5, want 1 (Fatal short-circuits)", n)
	}
	// The phase kept executing its other tasks; Fatal only stopped the
	// one task's retry loop.
	if n := siblingStarts.Load(); n < 1 {
		t.Fatal("no sibling task observed in flight")
	}
}

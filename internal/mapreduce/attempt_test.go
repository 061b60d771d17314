package mapreduce_test

// Black-box tests of the task-attempt supervision layer in memory and
// spilling: transient faults are retried to an identical result,
// exhausted or fatal faults surface as *TaskError with a clean spill
// root, and per-attempt timeouts retry. Every test asserts the
// goroutine count returns to its pre-run baseline.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

// failFirstAttempt fails attempt 1 of every task at the given point
// with a transient error.
func failFirstAttempt(at mapreduce.FaultPoint) mapreduce.FaultHook {
	return func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
		if point == at && attempt == 1 {
			return fmt.Errorf("injected %s fault (%s task %d)", point, phase, task)
		}
		return nil
	}
}

func TestRetryTransientFault(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	for dname, where := range localResidencies {
		for _, at := range []mapreduce.FaultPoint{mapreduce.FaultTaskStart, mapreduce.FaultEmit} {
			t.Run(fmt.Sprintf("%s/%s", dname, at), func(t *testing.T) {
				before := testleak.Snapshot()
				e, _ := engineFor(t, where, nil)
				e.FaultHook = failFirstAttempt(at)
				res, err := wordJob(r, false).RunContext(context.Background(), e, input)
				if err != nil {
					t.Fatal(err)
				}
				testleak.Check(t, before)
				// Every task's first attempt failed, so each of the m+r
				// tasks ran exactly twice.
				if res.Retries != m+r {
					t.Fatalf("Retries = %d, want %d", res.Retries, m+r)
				}
				if res.Attempts != 2*(m+r) {
					t.Fatalf("Attempts = %d, want %d", res.Attempts, 2*(m+r))
				}
				normalize(&res.Metrics)
				if !reflect.DeepEqual(res, baseline) {
					t.Fatal("retried run diverges from fault-free run")
				}
			})
		}
	}
}

func TestRetryExhaustedFailsWithTaskError(t *testing.T) {
	for dname, where := range localResidencies {
		t.Run(dname, func(t *testing.T) {
			before := testleak.Snapshot()
			e, tmp := engineFor(t, where, nil)
			e.Retry.MaxAttempts = 3
			e.Retry.BaseBackoff = time.Microsecond
			e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
				if phase == mapreduce.MapTask && task == 1 && point == mapreduce.FaultTaskStart {
					return errors.New("persistent map fault")
				}
				return nil
			}
			res, err := wordJob(4, false).RunContext(context.Background(), e, wordInput(3))
			if res != nil || err == nil {
				t.Fatalf("res=%v err=%v, want nil result and an error", res, err)
			}
			testleak.Check(t, before)
			var te *mapreduce.TaskError
			if !errors.As(err, &te) {
				t.Fatalf("error %v does not carry a *TaskError", err)
			}
			if te.Phase != mapreduce.MapTask || te.Task != 1 || te.Attempt != 3 {
				t.Fatalf("TaskError = {%v task %d attempt %d}, want {map task 1 attempt 3}", te.Phase, te.Task, te.Attempt)
			}
			if te.Cause == nil || te.Cause.Error() != "persistent map fault" {
				t.Fatalf("Cause = %v, want the injected fault", te.Cause)
			}
			if tmp != "" {
				if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
					t.Fatalf("spill root not cleaned after failed run: %v", ents)
				}
			}
		})
	}
}

func TestFatalFaultFailsFirstAttempt(t *testing.T) {
	for dname, where := range localResidencies {
		t.Run(dname, func(t *testing.T) {
			before := testleak.Snapshot()
			var starts atomic.Int64
			e, tmp := engineFor(t, where, nil)
			e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
				if phase == mapreduce.ReduceTask && task == 0 && point == mapreduce.FaultTaskStart {
					starts.Add(1)
					return mapreduce.Fatal(errors.New("deterministic bug"))
				}
				return nil
			}
			_, err := wordJob(4, false).RunContext(context.Background(), e, wordInput(2))
			if err == nil {
				t.Fatal("fatal fault did not fail the run")
			}
			testleak.Check(t, before)
			var te *mapreduce.TaskError
			if !errors.As(err, &te) || te.Phase != mapreduce.ReduceTask || te.Task != 0 || te.Attempt != 1 {
				t.Fatalf("err = %v, want reduce task 0 failing on attempt 1", err)
			}
			if n := starts.Load(); n != 1 {
				t.Fatalf("fatal task started %d attempts, want 1 (no retry)", n)
			}
			if tmp != "" {
				if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
					t.Fatalf("spill root not cleaned: %v", ents)
				}
			}
		})
	}
}

func TestTaskTimeoutRetries(t *testing.T) {
	const m, r = 2, 3
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, wordInput(m))
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	before := testleak.Snapshot()
	e := &mapreduce.Engine{Parallelism: 2}
	e.Retry.TaskTimeout = 20 * time.Millisecond
	e.Retry.BaseBackoff = time.Microsecond
	// Attempt 1 of map task 0 hangs until its per-attempt deadline
	// cancels it; the retry runs clean.
	e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
		if phase == mapreduce.MapTask && task == 0 && attempt == 1 && point == mapreduce.FaultTaskStart {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	res, err := wordJob(r, false).RunContext(context.Background(), e, wordInput(m))
	if err != nil {
		t.Fatal(err)
	}
	testleak.Check(t, before)
	if res.Retries != 1 || res.Attempts != m+r+1 {
		t.Fatalf("Attempts/Retries = %d/%d, want %d/1", res.Attempts, res.Retries, m+r+1)
	}
	normalize(&res.Metrics)
	if !reflect.DeepEqual(res, baseline) {
		t.Fatal("timed-out-and-retried run diverges from fault-free run")
	}
}

// TestPanicInUserCodeRecovered: a panic in user map/reduce code fails
// the attempt (not the process) and retries; a panicking final attempt
// surfaces as a TaskError whose cause carries the panic text.
func TestPanicInUserCodeRecovered(t *testing.T) {
	for dname, where := range localResidencies {
		t.Run(dname, func(t *testing.T) {
			before := testleak.Snapshot()
			var once atomic.Bool
			j := wordJob(3, false)
			inner := j.NewMapper
			j.NewMapper = func() mapreduce.Mapper[string, string, int] {
				mp := inner()
				return &mapreduce.MapperFunc[string, string, int]{
					OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
						if once.CompareAndSwap(false, true) {
							panic("user map bug")
						}
						mp.Map(ctx, line)
					},
				}
			}
			e, _ := engineFor(t, where, nil)
			e.Retry.BaseBackoff = time.Microsecond
			res, err := j.RunContext(context.Background(), e, wordInput(2))
			if err != nil {
				t.Fatalf("panic was not retried: %v", err)
			}
			if res.Retries != 1 {
				t.Fatalf("Retries = %d, want 1", res.Retries)
			}
			testleak.Check(t, before)
		})
	}
}

func TestPanicExhaustsIntoTaskError(t *testing.T) {
	j := wordJob(2, false)
	j.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
				panic("always down")
			},
		}
	}
	e := &mapreduce.Engine{Parallelism: 2}
	e.Retry.MaxAttempts = 2
	e.Retry.BaseBackoff = time.Microsecond
	_, err := j.RunContext(context.Background(), e, wordInput(1))
	var te *mapreduce.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a TaskError", err)
	}
	if te.Phase != mapreduce.MapTask || te.Attempt != 2 {
		t.Fatalf("TaskError = %+v, want map phase, attempt 2", te)
	}
	if got := te.Cause.Error(); got != "panic: always down" {
		t.Fatalf("Cause = %q, want the recovered panic", got)
	}
}

package mapreduce_test

// Cancellation tests: cancelling the context mid-map or mid-reduce must
// abort the run between tasks with an error wrapping ctx.Err(), leak no
// worker goroutines, and — when the run spilled — remove the spill
// directory. The CI pipeline additionally runs these under -race (the
// cancel fires from inside concurrently executing tasks).

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

// cancelJob is wordJob with a hook that cancels the run's context from
// inside the phase under test, so the cancel always lands mid-phase.
func cancelJob(r int, phase mapreduce.TaskKind, cancel context.CancelFunc) *mapreduce.Job[string, string, int, mapreduce.Pair[string, int]] {
	j := wordJob(r, false)
	if phase == mapreduce.MapTask {
		inner := j.NewMapper
		j.NewMapper = func() mapreduce.Mapper[string, string, int] {
			m := inner()
			return &mapreduce.MapperFunc[string, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
					cancel()
					m.Map(ctx, line)
				},
			}
		}
		return j
	}
	inner := j.NewReducer
	j.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		red := inner()
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
				cancel()
				red.Reduce(ctx, key, values)
			},
		}
	}
	return j
}

// checkCancelled asserts the error shape, the goroutine high-water
// mark returning to the baseline (no leaked workers), and — for a
// spilling run — the spill root being empty again.
func checkCancelled(t *testing.T, err error, before int, tmp string) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	testleak.Check(t, before)
	if tmp != "" {
		ents, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("spill root not cleaned after cancel: %v", ents)
		}
	}
}

func TestCancelMidPhase(t *testing.T) {
	phases := map[string]mapreduce.TaskKind{
		"map":    mapreduce.MapTask,
		"reduce": mapreduce.ReduceTask,
	}
	for dname, where := range localResidencies {
		for pname, phase := range phases {
			t.Run(dname+"/"+pname, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e, tmp := engineFor(t, where, nil)
				before := testleak.Snapshot()
				res, err := cancelJob(4, phase, cancel).RunContext(ctx, e, wordInput(4))
				if res != nil {
					t.Fatal("cancelled run returned a result")
				}
				checkCancelled(t, err, before, tmp)
			})
		}
	}
}

// TestCancelBeforeRun: an already-cancelled context fails fast without
// running any task.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for dname, where := range localResidencies {
		e, _ := engineFor(t, where, nil)
		ran := false
		j := wordJob(2, false)
		innerNew := j.NewMapper
		j.NewMapper = func() mapreduce.Mapper[string, string, int] {
			ran = true
			return innerNew()
		}
		if _, err := j.RunContext(ctx, e, wordInput(2)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", dname, err)
		}
		if ran {
			t.Fatalf("%s: map task ran despite pre-cancelled context", dname)
		}
	}
}

package mapreduce_test

// Cancellation tests: cancelling the context mid-map or mid-reduce must
// abort the run between tasks with an error wrapping ctx.Err(), leak no
// worker goroutines, and — on the external dataflow — remove the spill
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

// dataflowSpilling is the suites' third "dataflow" next to the typed
// engine in memory and the boxed oracle: the typed engine with a spill
// budget. It is a row label for the tables below, not an engine mode —
// engineFor turns it into DataflowTyped plus a SpillBudget.
const dataflowSpilling mapreduce.DataflowMode = -1

// engineFor builds the engine for one dataflow; spilling engines get a
// tiny budget (forcing spills before the cancel) rooted in a fresh
// directory whose emptiness the caller asserts afterwards.
func engineFor(t *testing.T, dataflow mapreduce.DataflowMode) (*mapreduce.Engine, string) {
	t.Helper()
	e := &mapreduce.Engine{Parallelism: 2, Dataflow: dataflow}
	var tmp string
	if dataflow == dataflowSpilling {
		tmp = t.TempDir()
		e.Dataflow = mapreduce.DataflowTyped
		e.SpillBudget = 64
		e.TmpDir = tmp
	}
	return e, tmp
}

// checkCancelled asserts the error shape, the goroutine high-water
// mark returning to the baseline (no leaked workers), and — for the
// external dataflow — the spill root being empty again.
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
	dataflows := map[string]mapreduce.DataflowMode{
		"typed":    mapreduce.DataflowTyped,
		"boxed":    mapreduce.DataflowBoxed,
		"external": dataflowSpilling,
	}
	phases := map[string]mapreduce.TaskKind{
		"map":    mapreduce.MapTask,
		"reduce": mapreduce.ReduceTask,
	}
	for dname, dataflow := range dataflows {
		for pname, phase := range phases {
			t.Run(dname+"/"+pname, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e, tmp := engineFor(t, dataflow)
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
	for _, dataflow := range []mapreduce.DataflowMode{
		mapreduce.DataflowTyped, mapreduce.DataflowBoxed, dataflowSpilling,
	} {
		e, _ := engineFor(t, dataflow)
		ran := false
		j := wordJob(2, false)
		innerNew := j.NewMapper
		j.NewMapper = func() mapreduce.Mapper[string, string, int] {
			ran = true
			return innerNew()
		}
		if _, err := j.RunContext(ctx, e, wordInput(2)); !errors.Is(err, context.Canceled) {
			t.Fatalf("dataflow %v: err = %v, want context.Canceled", e.Dataflow, err)
		}
		if ran {
			t.Fatalf("dataflow %v: map task ran despite pre-cancelled context", e.Dataflow)
		}
	}
}

// TestCancelBoxedEngine covers the boxed engine's own RunContext (the
// legacy any-keyed entry point, not routed through a typed job).
func TestCancelBoxedEngine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := &mapreduce.BoxedJob{
		Name:           "boxed-cancel",
		NumReduceTasks: 2,
		NewMapper: func() mapreduce.BoxedMapper {
			return &mapreduce.FuncMapper{OnMap: func(c *mapreduce.BoxedContext, kv mapreduce.KeyValue) {
				cancel()
				c.Emit(kv.Key, 1)
			}}
		},
		NewReducer: func() mapreduce.BoxedReducer {
			return &mapreduce.FuncReducer{OnReduce: func(c *mapreduce.BoxedContext, key any, vs []mapreduce.KeyValue) {}}
		},
		Partition: func(key any, r int) int { return mapreduce.HashPartition(key.(string), r) },
		Compare:   mapreduce.CompareStrings,
	}
	input := [][]mapreduce.KeyValue{{{Key: "a"}, {Key: "b"}}, {{Key: "c"}}}
	e := &mapreduce.Engine{Parallelism: 2}
	before := testleak.Snapshot()
	res, err := e.RunContext(ctx, job, input)
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	checkCancelled(t, err, before, "")
}

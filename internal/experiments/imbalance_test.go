package experiments

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
)

func TestImbalanceReportsEveryReduceTask(t *testing.T) {
	tbl, err := Imbalance(context.Background(), Options{Scale: 0.005, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 dataflows × 3 strategies", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "32" {
			t.Errorf("%s/%s tasks = %s, want r = 32", row[0], row[1], row[3])
		}
		if ratio := parseFloat(t, row[6]); math.IsInf(ratio, 0) || math.IsNaN(ratio) || ratio < 1 {
			t.Errorf("%s/%s max/mean = %s, want a finite ratio ≥ 1", row[0], row[1], row[6])
		}
	}
}

// TestReduceTaskDurationsPairsTaskSpans: a task span covers all of its
// attempts, so a task whose retry commits counts once, and a task that
// fails counts nothing. Other jobs' and the map phase's spans are not
// the named job's reduce tasks.
func TestReduceTaskDurationsPairsTaskSpans(t *testing.T) {
	tr := obs.NewTracer(64)
	match, other := tr.InternJob("blocksplit"), tr.InternJob("other")
	span := func(job uint32, phase uint8, task int32, failed int64, attempts ...int64) {
		tr.Record(obs.Event{Type: obs.EvBegin, Kind: obs.KTask, Phase: phase, Job: job, Task: task})
		for i, arg := range attempts {
			a := obs.Event{Kind: obs.KAttempt, Phase: phase, Job: job, Task: task, Attempt: int32(i + 1)}
			a.Type = obs.EvBegin
			tr.Record(a)
			a.Type, a.Arg = obs.EvEnd, arg
			tr.Record(a)
		}
		tr.Record(obs.Event{Type: obs.EvEnd, Kind: obs.KTask, Phase: phase, Job: job, Task: task, Arg: failed})
	}
	span(match, obs.PhaseReduce, 0, 0, 0)       // commits at once
	span(match, obs.PhaseReduce, 1, 0, 1, 0)    // first attempt fails, the retry commits
	span(match, obs.PhaseReduce, 2, 1, 1, 1, 1) // every attempt fails
	span(match, obs.PhaseMap, 0, 0, 0)
	span(other, obs.PhaseReduce, 0, 0, 0)

	ds := reduceTaskDurations(tr, "blocksplit")
	if len(ds) != 2 {
		t.Fatalf("durations = %v, want one per committed reduce task (tasks 0 and 1)", ds)
	}
	if slices.ContainsFunc(ds, func(d int64) bool { return d < 0 }) {
		t.Fatalf("durations = %v, want none negative", ds)
	}
	if ds := reduceTaskDurations(tr, "absent"); len(ds) != 0 {
		t.Fatalf("a job with no spans has durations %v", ds)
	}
}

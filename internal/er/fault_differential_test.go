package er_test

// End-to-end fault-schedule differential: the full ER workflow (BDM job
// + match job) under injected faults must produce a Result
// byte-identical to the fault-free run, for every strategy × residency
// × fault kind — proving the engine's commit protocol holds through the
// two-job pipeline, not just a single job. Attempt counters and spill
// counters are zeroed before comparison (execution history, not
// output); everything else — matches, comparisons, BDM, every
// TaskMetrics field — must match exactly.

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

var chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the chaos-hook pipeline differential test")

// residencies are the tables' rows: where the intermediate records of
// the pipeline's jobs live. (Distributed runs have their own suite,
// dist_differential_test.go.) The labels are older than the one dataflow
// ("typed" ran in memory, "external" spilled) and stay, so that test
// names do not change under the CI gates that select by them.
var residencies = map[string]bool{"typed": false, "external": true}

// faultEngine builds one engine per row for the pipeline runs; spilling
// engines spill aggressively into a per-test temp dir.
func faultEngine(t *testing.T, spilling bool) *mapreduce.Engine {
	t.Helper()
	e := &mapreduce.Engine{Parallelism: 4}
	if spilling {
		e.SpillBudget = 128
		e.TmpDir = t.TempDir()
	}
	return e
}

// zeroHistory strips the execution-history counters from an er.Result
// in place: the two attempt counters plus the external-only spill
// counters of both jobs.
func zeroHistory(res *er.Result) {
	clear := func(m *mapreduce.Metrics) {
		m.Attempts = 0
		m.Retries = 0
		for _, ms := range [][]mapreduce.TaskMetrics{m.MapMetrics, m.ReduceMetrics} {
			for i := range ms {
				ms[i].SpillRuns = 0
				ms[i].SpillBytesWritten = 0
				ms[i].SpillBytesRead = 0
			}
		}
	}
	if res.BDMResult != nil {
		clear(&res.BDMResult.Metrics)
	}
	if res.MatchResult != nil {
		clear(&res.MatchResult.Metrics)
	}
}

// erFault is one fault kind of the differential matrix. install mutates
// the engine (hook and/or retry policy); extOnly restricts disk faults
// to the runs that reach disk points.
type erFault struct {
	name    string
	extOnly bool
	install func(e *mapreduce.Engine)
}

// failFirstAt fails attempt 1 of every task of the given phase at the
// given point — FaultEmit faults panic through the user map/reduce
// frames (the injected-panic carrier), making "map-panic"/"reduce-panic"
// literal descriptions of the unwinding path.
func failFirstAt(phase mapreduce.TaskKind, point mapreduce.FaultPoint) func(e *mapreduce.Engine) {
	return func(e *mapreduce.Engine) {
		e.Retry.BaseBackoff = 1
		e.FaultHook = func(ctx context.Context, ph mapreduce.TaskKind, task, attempt int, pt mapreduce.FaultPoint) error {
			if ph == phase && pt == point && attempt == 1 {
				return fmt.Errorf("injected %s fault (%s task %d)", pt, ph, task)
			}
			return nil
		}
	}
}

func erFaults() []erFault {
	return []erFault{
		{name: "map-panic", install: failFirstAt(mapreduce.MapTask, mapreduce.FaultEmit)},
		{name: "reduce-panic", install: failFirstAt(mapreduce.ReduceTask, mapreduce.FaultEmit)},
		{name: "spill-transient", extOnly: true, install: failFirstAt(mapreduce.MapTask, mapreduce.FaultSpill)},
		{name: "straggler-timeout", install: func(e *mapreduce.Engine) {
			// 200 ms is far past any stall-free attempt on these inputs,
			// -race included, so only the straggler times out.
			e.Retry = mapreduce.RetryPolicy{BaseBackoff: 1, TaskTimeout: 200 * time.Millisecond}
			// Attempt 1 of map task 0 straggles until its deadline; the
			// retry is the only way the task finishes.
			e.FaultHook = func(ctx context.Context, ph mapreduce.TaskKind, task, attempt int, pt mapreduce.FaultPoint) error {
				if ph == mapreduce.MapTask && task == 0 && attempt == 1 && pt == mapreduce.FaultTaskStart {
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			}
		}},
	}
}

// TestERChaosDifferential runs the full two-job pipeline, over one
// source and over two, under a seeded random fault schedule (every hook
// point of every attempt may fail, final attempts excepted) and
// requires the byte-identical Result. The chaos-smoke CI job randomizes
// -chaos-seed.
func TestERChaosDifferential(t *testing.T) {
	parts := entity.SplitRoundRobin(testEntities(150, 3), 3)
	inputs := map[string]func(cfg er.Config) (*er.Result, error){
		"one source": func(cfg er.Config) (*er.Result, error) {
			return er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
		},
		"two sources": func(cfg er.Config) (*er.Result, error) {
			return er.RunDualPipeline(context.Background(), er.FromPartitions(parts[:1]), er.FromPartitions(parts[1:]), cfg)
		},
	}
	for dname, spilling := range residencies {
		t.Run(dname, func(t *testing.T) {
			for iname, run := range inputs {
				cfg := baseConfig(core.BlockSplit{}, 4)
				cfg.Engine = faultEngine(t, spilling)
				baseline, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				zeroHistory(baseline)

				before := testleak.Snapshot()
				cfg = baseConfig(core.BlockSplit{}, 4)
				eng := faultEngine(t, spilling)
				eng.Retry.BaseBackoff = 1
				eng.FaultHook = mapreduce.ChaosHook(*chaosSeed, 0.3, 0)
				cfg.Engine = eng
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("%s: chaos-seed=%d: %v", iname, *chaosSeed, err)
				}
				testleak.Check(t, before)
				zeroHistory(res)
				if !reflect.DeepEqual(res, baseline) {
					t.Fatalf("%s: chaos-seed=%d: chaotic pipeline diverges from fault-free run", iname, *chaosSeed)
				}
			}
		})
	}
}

func TestERFaultScheduleDifferential(t *testing.T) {
	parts := entity.SplitRoundRobin(testEntities(150, 3), 3)
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		for dname, spilling := range residencies {
			// Fault-free baseline on the same engine shape.
			cfg := baseConfig(strat, 4)
			cfg.Engine = faultEngine(t, spilling)
			baseline, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(baseline.Matches) == 0 {
				t.Fatalf("%s/%s: differential vacuous, no matches", strat.Name(), dname)
			}
			zeroHistory(baseline)
			for _, fault := range erFaults() {
				if fault.extOnly && !spilling {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", strat.Name(), dname, fault.name), func(t *testing.T) {
					before := testleak.Snapshot()
					cfg := baseConfig(strat, 4)
					eng := faultEngine(t, spilling)
					fault.install(eng)
					cfg.Engine = eng
					res, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
					if err != nil {
						t.Fatal(err)
					}
					testleak.Check(t, before)
					injected := res.MatchResult.Retries
					if res.BDMResult != nil {
						injected += res.BDMResult.Retries
					}
					if injected == 0 {
						t.Fatalf("fault %s never fired: no retries recorded", fault.name)
					}
					zeroHistory(res)
					if !reflect.DeepEqual(res, baseline) {
						t.Fatal("faulted pipeline diverges from fault-free run")
					}
				})
			}
		}
	}
}

package mapreduce_test

// Fault-schedule differential suite: under any deterministic fault
// schedule that lets every task eventually succeed, a run must produce
// a Result byte-identical to the fault-free run — attempt counters
// excluded (they record how the run executed). The chaos seed is a flag
// so the CI chaos-smoke job can randomize it and a failure reproduces
// from the printed seed alone:
//
//	go test -run TestFaultScheduleDifferential -chaos-seed=12345 ./internal/mapreduce/

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

var chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the chaos-hook fault-schedule differential tests")

func TestFaultScheduleDifferential(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	for _, aggregate := range []bool{false, true} {
		baseline, err := wordJob(r, aggregate).RunContext(context.Background(), &mapreduce.Engine{}, input)
		if err != nil {
			t.Fatal(err)
		}
		normalize(&baseline.Metrics)
		for dname, where := range localResidencies {
			for _, rate := range []float64{0.2, 0.6} {
				t.Run(fmt.Sprintf("aggregate=%v/%s/rate=%v", aggregate, dname, rate), func(t *testing.T) {
					before := testleak.Snapshot()
					e, _ := engineFor(t, where, nil)
					e.Retry.BaseBackoff = 1
					e.FaultHook = mapreduce.ChaosHook(*chaosSeed, rate, e.Retry.MaxAttempts)
					res, err := wordJob(r, aggregate).RunContext(context.Background(), e, input)
					if err != nil {
						t.Fatalf("chaos-seed=%d: %v", *chaosSeed, err)
					}
					testleak.Check(t, before)
					// Every attempt is either a task's single success or a
					// counted retry.
					if res.Attempts != int64(m+r)+res.Retries {
						t.Fatalf("chaos-seed=%d: Attempts = %d, want %d tasks + %d retries", *chaosSeed, res.Attempts, m+r, res.Retries)
					}
					normalize(&res.Metrics)
					if !reflect.DeepEqual(res, baseline) {
						t.Fatalf("chaos-seed=%d: chaotic run diverges from fault-free run", *chaosSeed)
					}
				})
			}
		}
	}
}

// TestSpillFaultDifferential targets a spilling run's disk points
// specifically: transient faults at spill and merge sites leave
// attempt-scoped run files behind, which the retry must supersede
// without the dead files leaking into the merge or the directory tree.
func TestSpillFaultDifferential(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	for _, at := range []mapreduce.FaultPoint{mapreduce.FaultSpill, mapreduce.FaultMerge} {
		t.Run(at.String(), func(t *testing.T) {
			before := testleak.Snapshot()
			e, tmp := engineFor(t, spilling, nil)
			e.Retry.BaseBackoff = 1
			var fired atomic.Int64
			e.FaultHook = func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
				if point == at && attempt == 1 {
					fired.Add(1)
					return fmt.Errorf("injected transient %s fault", point)
				}
				return nil
			}
			res, err := wordJob(r, false).RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatal(err)
			}
			testleak.Check(t, before)
			if fired.Load() == 0 {
				t.Fatalf("%s hook never fired; budget too large to spill?", at)
			}
			if res.Retries == 0 {
				t.Fatal("injected disk faults caused no retries")
			}
			normalize(&res.Metrics)
			if !reflect.DeepEqual(res, baseline) {
				t.Fatal("disk-faulted run diverges from fault-free run")
			}
			if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
				t.Fatalf("spill root not empty after run: %v", ents)
			}
		})
	}
}

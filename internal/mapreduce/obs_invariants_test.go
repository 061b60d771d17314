package mapreduce_test

// Trace-invariant suite: structural properties every recorded timeline
// must satisfy, checked on chaos runs in memory and spilling. The
// invariants are the contract DESIGN.md's "Observability" section
// states:
//
//  1. Pairing — every End event has a matching Begin with the same
//     (kind, phase, job, task, attempt, worker) identity, and no span
//     is left open when the run returns.
//  2. Nesting — attempt spans lie inside their task span, task spans
//     inside their phase span, phase spans inside the job span (by
//     timestamp containment); a task's attempts are numbered 1..n and
//     run one at a time, attempt k+1 beginning after attempt k ends.
//  3. Reconciliation — span/instant counts equal the Result's
//     execution-history fields byte-exactly: the trace and the Result
//     are two views of the same ledger.
import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/testleak"
)

// traceStats is everything the invariant checks need from one pass over
// the event buffer.
type traceStats struct {
	begins   map[obs.Kind]int64
	ends     map[obs.Kind]int64
	okEnds   map[obs.Kind]int64 // ends with Arg 0: the span succeeded
	instants map[obs.Kind]int64
	// intervals by span identity, for the nesting checks
	jobs     map[uint32][2]int64
	phases   map[[2]uint32][2]int64 // {job, phase}
	tasks    map[[3]int64][2]int64  // {job, phase, task}
	attempts map[[4]int64][2]int64  // {job, phase, task, attempt}
}

type openKey struct {
	kind    obs.Kind
	phase   uint8
	job     uint32
	task    int32
	attempt int32
	worker  int32
}

// checkPairing walks the buffer once: every End must pop a matching
// Begin (LIFO per identity), and at the end of the walk every stack
// must be empty. It returns the counters and intervals the other
// invariants consume.
func checkPairing(t *testing.T, events []obs.Event) traceStats {
	t.Helper()
	st := traceStats{
		begins:   map[obs.Kind]int64{},
		ends:     map[obs.Kind]int64{},
		okEnds:   map[obs.Kind]int64{},
		instants: map[obs.Kind]int64{},
		jobs:     map[uint32][2]int64{},
		phases:   map[[2]uint32][2]int64{},
		tasks:    map[[3]int64][2]int64{},
		attempts: map[[4]int64][2]int64{},
	}
	open := map[openKey][]obs.Event{}
	for i, ev := range events {
		k := openKey{ev.Kind, ev.Phase, ev.Job, ev.Task, ev.Attempt, ev.Worker}
		switch ev.Type {
		case obs.EvBegin:
			st.begins[ev.Kind]++
			open[k] = append(open[k], ev)
		case obs.EvEnd:
			stack := open[k]
			if len(stack) == 0 {
				t.Fatalf("event %d: %s end with no open begin (%+v)", i, ev.Kind, ev)
			}
			begin := stack[len(stack)-1]
			open[k] = stack[:len(stack)-1]
			st.ends[ev.Kind]++
			if ev.Arg == 0 {
				st.okEnds[ev.Kind]++
			}
			if ev.TS < begin.TS {
				t.Fatalf("event %d: %s span ends at %d before it begins at %d", i, ev.Kind, ev.TS, begin.TS)
			}
			iv := [2]int64{begin.TS, ev.TS}
			switch ev.Kind {
			case obs.KJob:
				st.jobs[ev.Job] = iv
			case obs.KPhase:
				st.phases[[2]uint32{ev.Job, uint32(ev.Phase)}] = iv
			case obs.KTask:
				st.tasks[[3]int64{int64(ev.Job), int64(ev.Phase), int64(ev.Task)}] = iv
			case obs.KAttempt:
				st.attempts[[4]int64{int64(ev.Job), int64(ev.Phase), int64(ev.Task), int64(ev.Attempt)}] = iv
			}
		case obs.EvInstant:
			st.instants[ev.Kind]++
		}
	}
	for k, stack := range open {
		if len(stack) != 0 {
			t.Fatalf("%d %s span(s) left open at end of run (task %d attempt %d)",
				len(stack), k.kind, k.task, k.attempt)
		}
	}
	return st
}

// contains reports whether inner ⊆ outer.
func contains(outer, inner [2]int64) bool {
	return inner[0] >= outer[0] && inner[1] <= outer[1]
}

// checkNesting asserts attempt ⊂ task ⊂ phase ⊂ job by timestamp
// containment, that every level's parent interval exists, and that a
// task's attempts are serial: attempt k+1 begins after attempt k ends.
// It returns the number of (k, k+1) attempt pairs it checked, which is
// the run's retry count.
func checkNesting(t *testing.T, st traceStats) int64 {
	t.Helper()
	for pk, piv := range st.phases {
		jiv, ok := st.jobs[pk[0]]
		if !ok {
			t.Fatalf("phase %d has no job span (job id %d)", pk[1], pk[0])
		}
		if !contains(jiv, piv) {
			t.Fatalf("phase %d span %v escapes job span %v", pk[1], piv, jiv)
		}
	}
	for tk, tiv := range st.tasks {
		piv, ok := st.phases[[2]uint32{uint32(tk[0]), uint32(tk[1])}]
		if !ok {
			t.Fatalf("task %d has no phase span (phase %d)", tk[2], tk[1])
		}
		if !contains(piv, tiv) {
			t.Fatalf("task %d span %v escapes phase %d span %v", tk[2], tiv, tk[1], piv)
		}
	}
	var pairs int64
	for ak, aiv := range st.attempts {
		tiv, ok := st.tasks[[3]int64{ak[0], ak[1], ak[2]}]
		if !ok {
			t.Fatalf("attempt %d of task %d has no task span", ak[3], ak[2])
		}
		if !contains(tiv, aiv) {
			t.Fatalf("attempt %d span %v escapes task %d span %v", ak[3], aiv, ak[2], tiv)
		}
		if ak[3] == 1 {
			continue
		}
		prev, ok := st.attempts[[4]int64{ak[0], ak[1], ak[2], ak[3] - 1}]
		if !ok {
			t.Fatalf("attempt %d of task %d has no attempt %d before it", ak[3], ak[2], ak[3]-1)
		}
		if aiv[0] < prev[1] {
			t.Fatalf("task %d: attempt %d begins at %d before attempt %d ends at %d",
				ak[2], ak[3], aiv[0], ak[3]-1, prev[1])
		}
		pairs++
	}
	return pairs
}

// checkReconciliation asserts the two ledgers agree byte-exactly:
// trace counts == Result execution history.
func checkReconciliation(t *testing.T, st traceStats,
	res *mapreduce.Result[string, mapreduce.Pair[string, int]], m, r int) {
	t.Helper()
	eq := func(what string, trace, result int64) {
		t.Helper()
		if trace != result {
			t.Fatalf("%s: trace=%d result=%d — the two ledgers must agree", what, trace, result)
		}
	}
	eq("attempts", st.begins[obs.KAttempt], res.Attempts)
	eq("retries", st.instants[obs.KRetry], res.Retries)

	total := int64(m + r)
	if got := st.begins[obs.KTask]; got != total {
		t.Fatalf("task spans = %d, want %d (every task exactly one span, however many attempts)", got, total)
	}
	if got := st.instants[obs.KCommit]; got != total {
		t.Fatalf("commits = %d, want %d (exactly-once)", got, total)
	}
	if got := st.begins[obs.KJob]; got != 1 {
		t.Fatalf("job spans = %d, want 1", got)
	}
	if got := st.begins[obs.KPhase]; got != 2 {
		t.Fatalf("phase spans = %d, want 2 (map + reduce)", got)
	}
	// Every attempt and task span is closed once the run is over.
	for _, k := range []obs.Kind{obs.KAttempt, obs.KTask} {
		if st.ends[k] != st.begins[k] {
			t.Fatalf("%s spans: %d begins, %d ends", k, st.begins[k], st.ends[k])
		}
	}
	// Each committed task closes its span exactly once as succeeded.
	if got := st.okEnds[obs.KTask]; got != total {
		t.Fatalf("task ends with Arg 0 = %d, want %d", got, total)
	}
}

func TestTraceInvariantsUnderChaos(t *testing.T) {
	const m, r = 4, 5
	input := wordInput(m)
	for dname, where := range localResidencies {
		for _, seed := range []uint64{1, 7, 99} {
			t.Run(fmt.Sprintf("%s/seed=%d", dname, seed), func(t *testing.T) {
				before := testleak.Snapshot()
				e, _ := engineFor(t, where, nil)
				e.Obs = obs.New(obs.Options{Log: obs.Quiet()})
				e.Retry.BaseBackoff = time.Microsecond
				e.FaultHook = mapreduce.ChaosHook(seed, 0.3, 0)
				res, err := wordJob(r, where == spilling).RunContext(context.Background(), e, input)
				if err != nil {
					t.Fatal(err)
				}
				testleak.Check(t, before)
				if res.Attempts == int64(m+r) {
					t.Logf("seed %d injected no faults; invariants still checked", seed)
				}
				if d := e.Obs.Tracer.Dropped(); d != 0 {
					t.Fatalf("tracer dropped %d events; invariants need the full timeline", d)
				}
				st := checkPairing(t, e.Obs.Tracer.Events())
				if pairs := checkNesting(t, st); pairs != res.Retries {
					t.Fatalf("checked %d serial attempt pairs, want one per retry (%d)", pairs, res.Retries)
				}
				checkReconciliation(t, st, res, m, r)
			})
		}
	}
}

// TestTracerOverflowKeepsInvariants runs with a tracer far too small
// for the timeline and asserts the drop-newest policy's promise: the
// kept prefix still pairs cleanly (no End without its Begin), even
// though later spans are missing entirely.
func TestTracerOverflowKeepsPrefix(t *testing.T) {
	const m, r = 4, 5
	e := &mapreduce.Engine{Parallelism: 2}
	e.Obs = obs.New(obs.Options{TraceCapacity: 8, Log: obs.Quiet()})
	res, err := wordJob(r, false).RunContext(context.Background(), e, wordInput(m))
	if err != nil {
		t.Fatal(err)
	}
	if e.Obs.Tracer.Dropped() == 0 {
		t.Fatal("capacity 8 must overflow on a real run")
	}
	if got := e.Obs.Tracer.Len(); got != 8 {
		t.Fatalf("Len = %d, want the full capacity 8", got)
	}
	// Walk the prefix: every End present must still find its Begin.
	open := map[openKey]int{}
	for i, ev := range e.Obs.Tracer.Events() {
		k := openKey{ev.Kind, ev.Phase, ev.Job, ev.Task, ev.Attempt, ev.Worker}
		switch ev.Type {
		case obs.EvBegin:
			open[k]++
		case obs.EvEnd:
			if open[k] == 0 {
				t.Fatalf("event %d: end without begin in kept prefix (%+v)", i, ev)
			}
			open[k]--
		}
	}
	// The Result keeps the truth even when the trace is truncated.
	if res.Attempts != m+r {
		t.Fatalf("Result.Attempts = %d, want %d (the Result must not be ring-bounded)", res.Attempts, m+r)
	}
}

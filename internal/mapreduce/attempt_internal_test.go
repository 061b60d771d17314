package mapreduce

// White-box tests of the retry-policy mechanics: backoff growth, cap,
// and jitter determinism; the fatal-error classifier; TaskError
// formatting (the "map task 0" substring is load-bearing for callers
// grepping job errors); and the chaos hook's two safety properties
// (determinism, never injecting into a task's final attempt).

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffForDeterministicAndBounded(t *testing.T) {
	p := &RetryPolicy{BaseBackoff: 4 * time.Millisecond, MaxBackoff: 32 * time.Millisecond}
	for task := 0; task < 4; task++ {
		for failed := 1; failed <= 8; failed++ {
			d := p.backoffFor(MapTask, task, failed)
			if d2 := p.backoffFor(MapTask, task, failed); d2 != d {
				t.Fatalf("backoffFor not deterministic: %v then %v", d, d2)
			}
			// Nominal delay: base·2^(failed-1), capped; jitter keeps the
			// result in (nominal/2, nominal].
			nominal := 4 * time.Millisecond
			for i := 1; i < failed && nominal < 32*time.Millisecond; i++ {
				nominal *= 2
			}
			if nominal > 32*time.Millisecond {
				nominal = 32 * time.Millisecond
			}
			if d <= nominal/2 || d > nominal {
				t.Fatalf("task %d failed %d: backoff %v outside (%v, %v]", task, failed, d, nominal/2, nominal)
			}
		}
	}
	// Different tasks must decohere (that is the jitter's purpose). With
	// a 2ms jitter window, 4 tasks colliding on the same nanosecond
	// value would imply a broken hash.
	a := p.backoffFor(MapTask, 0, 1)
	distinct := false
	for task := 1; task < 4; task++ {
		if p.backoffFor(MapTask, task, 1) != a {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("backoff jitter identical across tasks; hash not mixing task index")
	}
}

func TestRetryableClassification(t *testing.T) {
	base := errors.New("transient")
	if isFatal(base) {
		t.Fatal("plain error classified fatal")
	}
	if !isFatal(Fatal(base)) {
		t.Fatal("Fatal-wrapped error classified retryable")
	}
	if !isFatal(fmt.Errorf("wrapped: %w", Fatal(base))) {
		t.Fatal("Fatal must be detected through wrapping")
	}
	if Fatal(nil) != nil {
		t.Fatal("Fatal(nil) must be nil")
	}
}

func TestTaskErrorFormatAndUnwrap(t *testing.T) {
	cause := errors.New("boom in map")
	te := &TaskError{Phase: MapTask, Task: 0, Attempt: 3, Cause: cause}
	if got, want := te.Error(), "map task 0 (attempt 3): boom in map"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(te, cause) {
		t.Fatal("TaskError does not unwrap to its cause")
	}
	var out *TaskError
	if wrapped := fmt.Errorf("mapreduce: job %q: %w", "j", te); !errors.As(wrapped, &out) || out.Task != 0 {
		t.Fatal("TaskError not recoverable from job-level wrap")
	}
}

func TestFaultPointStrings(t *testing.T) {
	want := map[FaultPoint]string{
		FaultTaskStart: "task-start",
		FaultEmit:      "emit",
		FaultSpill:     "spill",
		FaultMerge:     "merge",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("FaultPoint(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestChaosHookDeterministicAndFinalAttemptSafe(t *testing.T) {
	h := ChaosHook(42, 0.5, 3)
	ctx := context.Background()
	injected := 0
	for task := 0; task < 16; task++ {
		for attempt := 1; attempt <= 3; attempt++ {
			for _, pt := range []FaultPoint{FaultTaskStart, FaultEmit, FaultSpill, FaultMerge} {
				e1 := h(ctx, MapTask, task, attempt, pt)
				e2 := h(ctx, MapTask, task, attempt, pt)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("chaos decision not deterministic at task %d attempt %d %s", task, attempt, pt)
				}
				if attempt >= 3 && e1 != nil {
					t.Fatalf("chaos injected into final attempt (task %d, %s): %v", task, pt, e1)
				}
				if e1 != nil {
					injected++
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("rate-0.5 chaos hook injected nothing over 128 sites")
	}
}

func TestParseChaos(t *testing.T) {
	if h, err := ParseChaos("", 0); h != nil || err != nil {
		t.Fatalf("empty spec: hook=%v err=%v, want nil/nil", h, err)
	}
	if h, err := ParseChaos("0.3", 0); h == nil || err != nil {
		t.Fatalf("plain rate: hook=%v err=%v", h, err)
	}
	if h, err := ParseChaos("0.3:99", 0); h == nil || err != nil {
		t.Fatalf("rate:seed: hook=%v err=%v", h, err)
	}
	for _, bad := range []string{"x", "-0.1", "1.5", "0.2:", "0.2:abc"} {
		if _, err := ParseChaos(bad, 0); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// Same spec, same decisions — the reproducibility contract of the
	// -faults flag and the chaos-smoke CI job.
	h1, _ := ParseChaos("0.4:7", 2)
	h2, _ := ParseChaos("0.4:7", 2)
	ctx := context.Background()
	for task := 0; task < 8; task++ {
		e1 := h1(ctx, ReduceTask, task, 1, FaultEmit)
		e2 := h2(ctx, ReduceTask, task, 1, FaultEmit)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("identical specs disagree at task %d", task)
		}
	}
}

func TestHeaviestFirstOrder(t *testing.T) {
	weight := []int64{3, 9, 3, 0, 9, 5}
	got := heaviestFirst(len(weight), func(task int) int64 { return weight[task] })
	want := []int{1, 4, 5, 0, 2, 3} // descending weight, equal weights in index order
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("heaviestFirst = %v, want %v", got, want)
	}
}

// gatedRunner records the order in which tasks start and holds each one
// until the test releases it, so the test sees exactly which tasks the
// feed has handed out.
type gatedRunner struct {
	started chan int
	release []chan struct{}
}

func (g *gatedRunner) runOne(_ context.Context, task int) {
	g.started <- task
	<-g.release[task]
}

// TestForEachTaskStartsHeaviestFirst pins the dispatch order: with fewer
// workers than tasks the tasks start in descending weight, and with one
// worker (or no weights) in index order.
func TestForEachTaskStartsHeaviestFirst(t *testing.T) {
	weight := []int64{1, 1, 7, 1, 4, 1}
	weigh := func(task int) int64 { return weight[task] }
	for _, tc := range []struct {
		name        string
		parallelism int
		weigh       func(int) int64
		want        []int
	}{
		{"two workers, weighed", 2, weigh, []int{2, 4, 0, 1, 3, 5}},
		{"two workers, no weights", 2, nil, []int{0, 1, 2, 3, 4, 5}},
		{"one worker, weighed", 1, weigh, []int{0, 1, 2, 3, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(weight)
			g := &gatedRunner{started: make(chan int), release: make([]chan struct{}, n)}
			for i := range g.release {
				g.release[i] = make(chan struct{})
			}
			e := &Engine{Parallelism: tc.parallelism}
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.forEachTask(context.Background(), n, tc.weigh, g)
			}()
			// The first `parallelism` tasks start concurrently, in either
			// order; each later task starts only once an earlier one is
			// released, so from there on the order is exact.
			var got []int
			for len(got) < tc.parallelism {
				got = append(got, <-g.started)
			}
			if tc.parallelism == 2 && got[0] == tc.want[1] {
				got[0], got[1] = got[1], got[0]
			}
			for next := 0; next < n; next++ {
				close(g.release[got[next]])
				if len(got) < n {
					got = append(got, <-g.started)
				}
			}
			<-done
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("start order %v, want %v", got, tc.want)
			}
		})
	}
}

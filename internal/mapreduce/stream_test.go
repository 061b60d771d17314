package mapreduce_test

// RunStream tests: streamed output must carry exactly the records a
// collecting run accumulates (same metrics), leave
// Result.Output empty, and surface sink errors as run failures — in
// memory and spilling.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

func sortedPairs(ps []mapreduce.Pair[string, int]) []mapreduce.Pair[string, int] {
	out := append([]mapreduce.Pair[string, int](nil), ps...)
	slices.SortFunc(out, func(a, b mapreduce.Pair[string, int]) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return a.Value - b.Value
	})
	return out
}

func TestRunStreamMatchesRunContext(t *testing.T) {
	for dname, where := range localResidencies {
		for _, par := range []int{1, 4} {
			e, _ := engineFor(t, where, nil)
			e.Parallelism = par
			input := wordInput(3)
			collected, err := wordJob(4, false).RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatal(err)
			}

			var streamed []mapreduce.Pair[string, int]
			res, err := wordJob(4, false).RunStream(context.Background(), e, input, func(p mapreduce.Pair[string, int]) error {
				streamed = append(streamed, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) != 0 {
				t.Fatalf("%s: RunStream accumulated %d output records", dname, len(res.Output))
			}
			// Emission order within a reduce task is preserved; across
			// tasks it is the completion interleaving, so compare
			// sequences at Parallelism 1 and multisets otherwise.
			got, want := streamed, collected.Output
			if par > 1 {
				got, want = sortedPairs(got), sortedPairs(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s par %d: streamed output differs from collected", dname, par)
			}
			// Everything but Output must be byte-identical.
			collected.Output = nil
			res.Output = nil
			if !reflect.DeepEqual(res, collected) {
				t.Fatalf("%s par %d: metrics differ between stream and collect\nstream:  %+v\ncollect: %+v",
					dname, par, res.Metrics, collected.Metrics)
			}
		}
	}
}

func TestRunStreamSinkErrorFailsRun(t *testing.T) {
	sinkErr := errors.New("sink full")
	for dname, where := range localResidencies {
		e, _ := engineFor(t, where, nil)
		n := 0
		_, err := wordJob(4, false).RunStream(context.Background(), e, wordInput(3), func(p mapreduce.Pair[string, int]) error {
			n++
			if n > 2 {
				return sinkErr
			}
			return nil
		})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("%s: err = %v, want the sink error", dname, err)
		}
	}
}

// TestRunStreamNilCallbackCollects pins the documented fallback: a nil
// callback behaves exactly like RunContext.
func TestRunStreamNilCallbackCollects(t *testing.T) {
	e := &mapreduce.Engine{}
	input := wordInput(2)
	want, err := wordJob(3, false).RunContext(context.Background(), e, input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wordJob(3, false).RunStream(context.Background(), e, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunStream(nil) differs from RunContext")
	}
}

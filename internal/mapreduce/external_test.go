package mapreduce_test

// Engine-level tests of the external (out-of-core) dataflow: a plain
// word-count-shaped job with string keys and int values (built-in runio
// codecs) run with budgets tiny enough that every map task spills many
// runs, compared byte-for-byte against the typed in-memory engine. The
// strategy-level differential matrix lives in
// external_differential_test.go.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// wordCount is wordJob's job type.
type wordCount = mapreduce.Job[string, string, int, mapreduce.Pair[string, int]]

// wordJob builds a typed job over (doc line → word counts): map emits
// (word, 1) per occurrence — or, with aggregate, counts each line's
// words itself and emits one (word, n) per distinct word of the line —
// and reduce sums. Keys get the engine's string-prefix coding, so a
// spilled run's decoder recomputes inexact codes.
func wordJob(r int, aggregate bool) *wordCount {
	j := &wordCount{
		Name:           "wordcount",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[string, string, int] {
			return &mapreduce.MapperFunc[string, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
					for _, w := range strings.Fields(line) {
						ctx.Emit(w, 1)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
			return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
					sum := 0
					for _, v := range values {
						sum += v.Value
					}
					ctx.Emit(mapreduce.Pair[string, int]{Key: key, Value: sum})
					ctx.Inc("groups-seen", 1)
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
		Coding:    mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}
	if aggregate {
		j.NewMapper = func() mapreduce.Mapper[string, string, int] { return &aggWords{} }
	}
	return j
}

// aggWords is the in-mapper-aggregating word count: a count table per
// input line, emitted in first-seen order, so values other than 1 reach
// the shuffle and the reducer's sums.
type aggWords struct {
	words  []string
	counts []int
}

func (a *aggWords) Configure(m, r, partitionIndex int) {}

func (a *aggWords) Map(ctx *mapreduce.MapContext[string, string, int], line string) {
	a.words, a.counts = a.words[:0], a.counts[:0]
	for _, w := range strings.Fields(line) {
		i := slices.Index(a.words, w)
		if i < 0 {
			i = len(a.words)
			a.words, a.counts = append(a.words, w), append(a.counts, 0)
		}
		a.counts[i]++
	}
	for i, w := range a.words {
		ctx.Emit(w, a.counts[i])
	}
}

// wordInput builds m partitions of synthetic text with heavy key skew
// and adversarial words (tabs cannot appear in Fields output, but
// non-ASCII and long words can).
func wordInput(m int) [][]string {
	input := make([][]string, m)
	words := []string{"the", "quick", "brown", "fox", "日本語", "a",
		"longwordthatexceedsthesixteenbyteprefixcode-α", "longwordthatexceedsthesixteenbyteprefixcode-β"}
	for i := 0; i < m; i++ {
		for l := 0; l < 30; l++ {
			var b strings.Builder
			for w := 0; w < 8; w++ {
				b.WriteString(words[(i+l+w*w)%len(words)])
				b.WriteByte(' ')
			}
			input[i] = append(input[i], b.String())
		}
	}
	return input
}

// TestExternalWordCountDifferential sweeps every residency of the
// intermediate records against the reference: budget 0 (in memory),
// budgets that spill after every record or two, and a budget nothing
// reaches. A run that does not spill must equal the reference with its
// spill counters left in, and must not touch TmpDir at all — it is
// given a path that does not exist and must leave it that way.
func TestExternalWordCountDifferential(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		for _, budget := range []int64{0, 1, 16, 100, 1 << 20} {
			for m := 1; m <= 3; m++ {
				name := fmt.Sprintf("aggregate=%v/budget=%d/m=%d", aggregate, budget, m)
				input := wordInput(m)
				job := wordJob(4, aggregate)
				spills := budget > 0 && budget < 1<<20

				want := job.Reference(input)
				tmp := t.TempDir()
				if !spills {
					tmp = filepath.Join(tmp, "never-created")
				}
				got, err := job.RunContext(context.Background(), &mapreduce.Engine{
					SpillBudget: budget,
					TmpDir:      tmp,
				}, input)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				// At budget 1 every record triggers a spill, so each map
				// task must have flushed at least 4 runs; at the other
				// spilling budgets, at least one.
				for i := range got.MapMetrics {
					if runs := got.MapMetrics[i].SpillRuns; (budget == 1 && runs < 4) || (spills && runs < 1) {
						t.Errorf("%s: map task %d spilled %d runs", name, i, runs)
					}
				}
				if spills {
					normalize(&got.Metrics)
				} else {
					// Left in: zero spill counters, and no retry.
					got.Attempts = 0
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: Result diverges from the reference\nreference: %+v\ngot: %+v", name, want, got)
				}

				// The per-run spill directory must be gone; a run that
				// never spilled must not have created even its root.
				ents, err := os.ReadDir(tmp)
				switch {
				case !spills && !os.IsNotExist(err):
					t.Fatalf("%s: run without spills touched TmpDir (ReadDir: %v, %v)", name, ents, err)
				case spills && (err != nil || len(ents) != 0):
					t.Fatalf("%s: temp dir not empty after the run: %v (err %v)", name, ents, err)
				}
			}
		}
	}
}

// TestExternalNoCoding runs the external dataflow without a KeyCoding
// (zero codes, comparator-only merge).
func TestExternalNoCoding(t *testing.T) {
	input := wordInput(3)
	job := wordJob(4, true)
	job.Coding = mapreduce.KeyCoding[string]{}
	typed, err := job.RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := job.RunContext(context.Background(), &mapreduce.Engine{
		SpillBudget: 64,
		TmpDir:      t.TempDir(),
	}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&typed.Metrics)
	normalize(&ext.Metrics)
	if !reflect.DeepEqual(typed, ext) {
		t.Fatal("external (no coding) Result diverges from typed")
	}
}

// TestExternalTempCleanupOnError proves the spill directory is removed
// even when a reduce task fails mid-merge (with runs on disk).
func TestExternalTempCleanupOnError(t *testing.T) {
	input := wordInput(3)
	job := wordJob(4, false)
	job.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
				panic("injected reducer failure")
			},
		}
	}
	tmp := t.TempDir()
	_, err := job.RunContext(context.Background(), &mapreduce.Engine{
		SpillBudget: 1,
		TmpDir:      tmp,
	}, input)
	if err == nil || !strings.Contains(err.Error(), "injected reducer failure") {
		t.Fatalf("err = %v, want injected reducer failure", err)
	}
	ents, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 0 {
		t.Fatalf("temp dir not cleaned up after reducer error: %v", ents)
	}

	// Same for a map-side failure.
	job2 := wordJob(4, false)
	job2.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
				ctx.Emit("w", 1)
				panic("injected mapper failure")
			},
		}
	}
	if _, err := job2.RunContext(context.Background(), &mapreduce.Engine{SpillBudget: 1, TmpDir: tmp}, input); err == nil {
		t.Fatal("map-side failure not reported")
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("temp dir not cleaned up after mapper error: %v", ents)
	}
}

// TestExternalMissingCodec: a key type nobody registered a codec for
// must fail up front with a descriptive error, not per record.
func TestExternalMissingCodec(t *testing.T) {
	type unregisteredKey struct{ X int }
	job := &mapreduce.Job[string, unregisteredKey, int, string]{
		Name:           "nocodec",
		NumReduceTasks: 1,
		NewMapper: func() mapreduce.Mapper[string, unregisteredKey, int] {
			return &mapreduce.MapperFunc[string, unregisteredKey, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, unregisteredKey, int], s string) {},
			}
		},
		NewReducer: func() mapreduce.Reducer[unregisteredKey, int, string] {
			return &mapreduce.ReducerFunc[unregisteredKey, int, string]{
				OnReduce: func(ctx *mapreduce.ReduceContext[string], k unregisteredKey, vs []mapreduce.Rec[unregisteredKey, int]) {
				},
			}
		},
		Partition: func(k unregisteredKey, r int) int { return 0 },
		Compare:   func(a, b unregisteredKey) int { return a.X - b.X },
	}
	_, err := job.RunContext(context.Background(), &mapreduce.Engine{SpillBudget: 1}, [][]string{{"x"}})
	if err == nil || !strings.Contains(err.Error(), "no runio codec") {
		t.Fatalf("err = %v, want missing-codec error", err)
	}
}

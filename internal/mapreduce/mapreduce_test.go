package mapreduce_test

// The model tests: the Section II semantics the paper's strategies rely
// on — part/comp/group on keys only, the map-task-stable merge, metrics
// and counters — pinned on small fixtures with
// hand-written expectations. Every job runs with and without its
// KeyCoding, so the key-code path and the comparator path are both
// pinned, and every successful run is also held to the reference.

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// bothCodings runs f on the job as built (coded) and on a copy without
// its KeyCoding.
func bothCodings[I, K, V, O any](t *testing.T, job *mapreduce.Job[I, K, V, O], f func(t *testing.T, job *mapreduce.Job[I, K, V, O])) {
	t.Helper()
	if job.Coding.Encode == nil {
		t.Fatal("bothCodings: the job has no KeyCoding to remove")
	}
	uncoded := *job
	uncoded.Coding = mapreduce.KeyCoding[K]{}
	t.Run("coded", func(t *testing.T) { f(t, job) })
	t.Run("uncoded", func(t *testing.T) { f(t, &uncoded) })
}

// runChecked runs the job and holds its full Result to the reference's.
func runChecked[I, K, V, O any](t *testing.T, e *mapreduce.Engine, job *mapreduce.Job[I, K, V, O], input [][]I) *mapreduce.Result[I, O] {
	t.Helper()
	res, err := job.RunContext(context.Background(), e, input)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "engine", res, job.Reference(input))
	return res
}

func countsOf(res *mapreduce.Result[string, mapreduce.Pair[string, int]]) map[string]int {
	out := make(map[string]int)
	for _, p := range res.Output {
		out[p.Key] = p.Value
	}
	return out
}

func TestWordCount(t *testing.T) {
	input := [][]string{{"a b a", "c"}, {"b a", "c c c"}}
	want := map[string]int{"a": 3, "b": 2, "c": 4}
	for _, aggregate := range []bool{false, true} {
		for _, r := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("aggregate=%v/r=%d", aggregate, r), func(t *testing.T) {
				bothCodings(t, wordJob(r, aggregate), func(t *testing.T, job *wordCount) {
					res := runChecked(t, &mapreduce.Engine{}, job, input)
					if got := countsOf(res); !reflect.DeepEqual(got, want) {
						t.Errorf("counts = %v, want %v", got, want)
					}
				})
			})
		}
	}
}

// TestReferenceWordCountByHand is the reference's own sanity: on a
// fixture whose answer can be written down it produces exactly that, so
// "engine ≡ Reference" cannot hold by both being wrong the same way.
func TestReferenceWordCountByHand(t *testing.T) {
	input := [][]string{{"a b a", "c"}, {"b a", "c c c"}}
	for _, aggregate := range []bool{false, true} {
		res := wordJob(1, aggregate).Reference(input)
		want := []mapreduce.Pair[string, int]{{Key: "a", Value: 3}, {Key: "b", Value: 2}, {Key: "c", Value: 4}}
		if !reflect.DeepEqual(res.Output, want) {
			t.Errorf("aggregate=%v: output = %v, want %v", aggregate, res.Output, want)
		}
		// Plain: 4+5 words emitted. Aggregated: {a,b}, {c}, {b,a} and {c},
		// one record per distinct word of each line.
		records := map[bool]int64{false: 9, true: 6}[aggregate]
		if res.MapOutputRecords != records {
			t.Errorf("aggregate=%v: MapOutputRecords = %d, want %d", aggregate, res.MapOutputRecords, records)
		}
		wantReduce := mapreduce.TaskMetrics{
			Kind: mapreduce.ReduceTask, InputRecords: records, InputGroups: 3, OutputRecords: 3,
			MaxGroupRecords: map[bool]int64{false: 4, true: 2}[aggregate],
			Counters:        map[string]int64{"groups-seen": 3},
		}
		if got := res.ReduceMetrics[0]; !reflect.DeepEqual(got, wantReduce) {
			t.Errorf("aggregate=%v: reduce metrics = %+v, want %+v", aggregate, got, wantReduce)
		}
	}
}

func TestInMapperAggregationReducesMapOutput(t *testing.T) {
	input := [][]string{{"a a a a b a b"}, {"b b"}}
	bothCodings(t, wordJob(3, false), func(t *testing.T, plainJob *wordCount) {
		aggJob := wordJob(3, true)
		aggJob.Coding = plainJob.Coding
		plain := runChecked(t, &mapreduce.Engine{}, plainJob, input)
		aggregated := runChecked(t, &mapreduce.Engine{}, aggJob, input)
		if plain.MapOutputRecords != 9 {
			t.Errorf("plain map output = %d, want 9", plain.MapOutputRecords)
		}
		// Line 0 emits {a,b}, line 1 emits {b}: 3 aggregated records.
		if aggregated.MapOutputRecords != 3 {
			t.Errorf("aggregated map output = %d, want 3", aggregated.MapOutputRecords)
		}
		if !reflect.DeepEqual(countsOf(plain), countsOf(aggregated)) {
			t.Error("in-mapper aggregation changed the result")
		}
	})
}

type stringPair = mapreduce.Pair[string, string]

// orderJob sends every input value to one reduce task under its record's
// key and passes each group's values through in the order they arrive.
func orderJob() *mapreduce.Job[stringPair, string, string, stringPair] {
	return &mapreduce.Job[stringPair, string, string, stringPair]{
		Name:           "order",
		NumReduceTasks: 1,
		NewMapper: func() mapreduce.Mapper[stringPair, string, string] {
			return &mapreduce.MapperFunc[stringPair, string, string]{
				OnMap: func(ctx *mapreduce.MapContext[stringPair, string, string], rec stringPair) {
					ctx.Emit(rec.Key, rec.Value)
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, string, stringPair] {
			return &mapreduce.ReducerFunc[string, string, stringPair]{
				OnReduce: func(ctx *mapreduce.ReduceContext[stringPair], key string, values []mapreduce.Rec[string, string]) {
					for _, v := range values {
						ctx.Emit(stringPair{Key: key, Value: v.Value})
					}
				},
			}
		},
		Partition: func(string, int) int { return 0 },
		Compare:   strings.Compare,
		Coding:    mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}
}

// orderInput has one key in all three map tasks and a smaller one that
// only the middle task emits, and last.
var orderInput = [][]stringPair{
	{{Key: "k", Value: "m0-a"}, {Key: "k", Value: "m0-b"}},
	{{Key: "k", Value: "m1-a"}, {Key: "j", Value: "m1-x"}},
	{{Key: "k", Value: "m2-a"}, {Key: "k", Value: "m2-b"}},
}

const orderWant = "j=m1-x k=m0-a k=m0-b k=m1-a k=m2-a k=m2-b"

func orderOf(res *mapreduce.Result[stringPair, stringPair]) string {
	var got []string
	for _, p := range res.Output {
		got = append(got, p.Key+"="+p.Value)
	}
	return strings.Join(got, " ")
}

// TestStableMergeOrder verifies the Hadoop-like property BlockSplit
// depends on: within one key group, values arrive in map-task order.
func TestStableMergeOrder(t *testing.T) {
	bothCodings(t, orderJob(), func(t *testing.T, job *mapreduce.Job[stringPair, string, string, stringPair]) {
		// Run several times: with parallel map tasks the merge order must
		// still be deterministic (map task 0's values first).
		for trial := 0; trial < 10; trial++ {
			res := runChecked(t, &mapreduce.Engine{Parallelism: 4}, job, orderInput)
			if got := orderOf(res); got != orderWant {
				t.Fatalf("trial %d: value order = %s, want %s", trial, got, orderWant)
			}
		}
	})
}

// TestReferenceStableMergeOrderByHand: the reference's sanity on the
// property the engine's tiebreak exists for.
func TestReferenceStableMergeOrderByHand(t *testing.T) {
	if got := orderOf(orderJob().Reference(orderInput)); got != orderWant {
		t.Errorf("value order = %s, want %s (equal keys in map-task, then emission order)", got, orderWant)
	}
}

// TestCompositeKeyGrouping mirrors the Figure 1 example: partition on
// part of the key, group on the entire key.
func TestCompositeKeyGrouping(t *testing.T) {
	type ck struct {
		color string
		shape string
	}
	job := &mapreduce.Job[ck, ck, int, mapreduce.Pair[ck, int]]{
		Name:           "figure1",
		NumReduceTasks: 3,
		NewMapper: func() mapreduce.Mapper[ck, ck, int] {
			return &mapreduce.MapperFunc[ck, ck, int]{
				OnMap: func(ctx *mapreduce.MapContext[ck, ck, int], k ck) { ctx.Emit(k, 1) },
			}
		},
		NewReducer: func() mapreduce.Reducer[ck, int, mapreduce.Pair[ck, int]] {
			return &mapreduce.ReducerFunc[ck, int, mapreduce.Pair[ck, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[ck, int]], key ck, values []mapreduce.Rec[ck, int]) {
					ctx.Emit(mapreduce.Pair[ck, int]{Key: key, Value: len(values)})
				},
			}
		},
		Partition: func(key ck, r int) int { return mapreduce.HashPartition(key.color, r) },
		Compare: func(a, b ck) int {
			return cmp.Or(strings.Compare(a.color, b.color), strings.Compare(a.shape, b.shape))
		},
		// The code knows the colour only: every shape is a code tie.
		Coding: mapreduce.KeyCoding[ck]{Encode: func(k ck) mapreduce.Code { return mapreduce.StringPrefixCode(k.color) }},
	}
	input := [][]ck{{
		{"gray", "circle"}, {"gray", "triangle"}, {"black", "circle"}, {"gray", "circle"},
	}, {
		{"black", "circle"}, {"light", "triangle"},
	}}
	bothCodings(t, job, func(t *testing.T, job *mapreduce.Job[ck, ck, int, mapreduce.Pair[ck, int]]) {
		res := runChecked(t, &mapreduce.Engine{}, job, input)
		total := 0
		for _, p := range res.Output {
			total += p.Value
		}
		if groups := len(res.Output); groups != 4 {
			t.Errorf("distinct (color,shape) groups = %d, want 4", groups)
		}
		if total != 6 {
			t.Errorf("total grouped records = %d, want 6", total)
		}
	})
}

func TestGroupCoarserThanSort(t *testing.T) {
	// Sort by (a,b), group by a only: reduce sees values sorted by b.
	type ck struct{ a, b int }
	type out = mapreduce.Pair[int, []int]
	job := &mapreduce.Job[ck, ck, struct{}, out]{
		Name:           "secondary-sort",
		NumReduceTasks: 2,
		NewMapper: func() mapreduce.Mapper[ck, ck, struct{}] {
			return &mapreduce.MapperFunc[ck, ck, struct{}]{
				OnMap: func(ctx *mapreduce.MapContext[ck, ck, struct{}], k ck) { ctx.Emit(k, struct{}{}) },
			}
		},
		NewReducer: func() mapreduce.Reducer[ck, struct{}, out] {
			return &mapreduce.ReducerFunc[ck, struct{}, out]{
				OnReduce: func(ctx *mapreduce.ReduceContext[out], key ck, values []mapreduce.Rec[ck, struct{}]) {
					var bs []int
					for _, v := range values {
						bs = append(bs, v.Key.b)
					}
					ctx.Emit(out{Key: key.a, Value: bs})
				},
			}
		},
		Partition: func(key ck, r int) int { return key.a % r },
		Compare:   func(x, y ck) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) },
		Group:     func(x, y ck) int { return cmp.Compare(x.a, y.a) },
		// Exact, and the leading 64 bits are the grouping key.
		Coding: mapreduce.KeyCoding[ck]{
			Encode:    func(k ck) mapreduce.Code { return mapreduce.Code{Hi: uint64(k.a), Lo: uint64(k.b)} },
			Exact:     true,
			GroupBits: 64,
		},
	}
	input := [][]ck{{{0, 5}, {0, 1}, {1, 9}, {0, 3}, {1, 2}}}
	want := []out{{Key: 0, Value: []int{1, 3, 5}}, {Key: 1, Value: []int{2, 9}}}
	bothCodings(t, job, func(t *testing.T, job *mapreduce.Job[ck, ck, struct{}, out]) {
		if res := runChecked(t, &mapreduce.Engine{}, job, input); !reflect.DeepEqual(res.Output, want) {
			t.Errorf("output = %v, want %v (secondary sort broken)", res.Output, want)
		}
	})
}

func TestValidation(t *testing.T) {
	run := func(job *wordCount, input [][]string) error {
		_, err := job.RunContext(context.Background(), &mapreduce.Engine{}, input)
		return err
	}
	if run(wordJob(2, false), nil) == nil {
		t.Error("no input partitions: want error")
	}
	if run(wordJob(0, false), [][]string{{"a"}}) == nil {
		t.Error("r=0: want error")
	}
	noMap := wordJob(1, false)
	noMap.NewMapper = nil
	if run(noMap, [][]string{{"a"}}) == nil {
		t.Error("nil NewMapper: want error")
	}
	noCmp := wordJob(1, false)
	noCmp.Compare = nil
	if run(noCmp, [][]string{{"a"}}) == nil {
		t.Error("nil Compare: want error")
	}
}

func TestBadPartitionFunctionIsAnError(t *testing.T) {
	job := wordJob(2, false)
	job.Partition = func(string, int) int { return 99 }
	bothCodings(t, job, func(t *testing.T, job *wordCount) {
		_, err := job.RunContext(context.Background(), &mapreduce.Engine{}, [][]string{{"a"}})
		if err == nil || !strings.Contains(err.Error(), "partition function returned") {
			t.Errorf("out-of-range partition: err = %v", err)
		}
	})
}

func TestPanicsInUserCodeBecomeErrors(t *testing.T) {
	job := wordJob(1, false)
	job.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(*mapreduce.MapContext[string, string, int], string) { panic("boom in map") },
		}
	}
	if _, err := job.RunContext(context.Background(), &mapreduce.Engine{}, [][]string{{"a"}}); err == nil || !strings.Contains(err.Error(), "boom in map") {
		t.Errorf("map panic: err = %v", err)
	}
	job2 := wordJob(1, false)
	job2.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(*mapreduce.ReduceContext[mapreduce.Pair[string, int]], string, []mapreduce.Rec[string, int]) {
				panic("boom in reduce")
			},
		}
	}
	if _, err := job2.RunContext(context.Background(), &mapreduce.Engine{}, [][]string{{"a"}}); err == nil || !strings.Contains(err.Error(), "boom in reduce") {
		t.Errorf("reduce panic: err = %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	bothCodings(t, wordJob(2, false), func(t *testing.T, job *wordCount) {
		res := runChecked(t, &mapreduce.Engine{}, job, [][]string{{"a b", "c d e"}, {"f"}})
		if got := res.MapMetrics[0].InputRecords; got != 2 {
			t.Errorf("map 0 input = %d, want 2", got)
		}
		if got := res.MapMetrics[0].OutputRecords; got != 5 {
			t.Errorf("map 0 output = %d, want 5", got)
		}
		if res.MapOutputRecords != 6 {
			t.Errorf("total map output = %d, want 6", res.MapOutputRecords)
		}
		var reduceIn, groups int64
		for _, m := range res.ReduceMetrics {
			reduceIn += m.InputRecords
			groups += m.InputGroups
		}
		if reduceIn != 6 {
			t.Errorf("reduce input = %d, want 6", reduceIn)
		}
		if groups != 6 {
			t.Errorf("reduce groups = %d, want 6 distinct words", groups)
		}
	})
}

func TestUserCounters(t *testing.T) {
	job := wordJob(2, false)
	job.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
				ctx.Inc("groups", 1)
				ctx.Inc("values", int64(len(values)))
			},
		}
	}
	bothCodings(t, job, func(t *testing.T, job *wordCount) {
		res := runChecked(t, &mapreduce.Engine{}, job, [][]string{{"a b a"}})
		if got := res.Counter("groups"); got != 2 {
			t.Errorf("groups counter = %d, want 2", got)
		}
		if got := res.Counter("values"); got != 3 {
			t.Errorf("values counter = %d, want 3", got)
		}
		if got := res.Counter("missing"); got != 0 {
			t.Errorf("missing counter = %d, want 0", got)
		}
	})
}

// TestDeterminismAcrossParallelism: identical output regardless of
// worker count.
func TestDeterminismAcrossParallelism(t *testing.T) {
	input := [][]string{
		{"x y z x", "w w"},
		{"y y y"},
		{"z"},
		{"q r s t u v w x y z"},
	}
	bothCodings(t, wordJob(5, true), func(t *testing.T, job *wordCount) {
		var baseline []mapreduce.Pair[string, int]
		for _, par := range []int{1, 2, 4, 8} {
			res := runChecked(t, &mapreduce.Engine{Parallelism: par}, job, input)
			if baseline == nil {
				baseline = res.Output
			} else if !reflect.DeepEqual(res.Output, baseline) {
				t.Errorf("parallelism %d changed output", par)
			}
		}
	})
}

func TestTaskKindString(t *testing.T) {
	if mapreduce.MapTask.String() != "map" || mapreduce.ReduceTask.String() != "reduce" {
		t.Error("TaskKind strings wrong")
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for r := 1; r <= 17; r++ {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("key-%d", i)
			p := mapreduce.HashPartition(key, r)
			if p < 0 || p >= r {
				t.Fatalf("HashPartition(%q, %d) = %d out of range", key, r, p)
			}
			if p != mapreduce.HashPartition(key, r) {
				t.Fatalf("HashPartition not deterministic for %q", key)
			}
		}
	}
}

// TestReduceOutputOrderedByTask: outputs concatenate in reduce-task
// index order.
func TestReduceOutputOrderedByTask(t *testing.T) {
	job := &mapreduce.Job[int, int, struct{}, int]{
		Name:           "task-order",
		NumReduceTasks: 4,
		NewMapper: func() mapreduce.Mapper[int, int, struct{}] {
			return &mapreduce.MapperFunc[int, int, struct{}]{
				OnMap: func(ctx *mapreduce.MapContext[int, int, struct{}], v int) { ctx.Emit(v, struct{}{}) },
			}
		},
		NewReducer: func() mapreduce.Reducer[int, struct{}, int] {
			return &mapreduce.ReducerFunc[int, struct{}, int]{
				OnReduce: func(ctx *mapreduce.ReduceContext[int], key int, _ []mapreduce.Rec[int, struct{}]) { ctx.Emit(key) },
			}
		},
		Partition: func(key, r int) int { return key % r },
		Compare:   cmp.Compare[int],
		Coding:    mapreduce.KeyCoding[int]{Encode: func(k int) mapreduce.Code { return mapreduce.Code{Lo: uint64(k)} }, Exact: true},
	}
	bothCodings(t, job, func(t *testing.T, job *mapreduce.Job[int, int, struct{}, int]) {
		res := runChecked(t, &mapreduce.Engine{Parallelism: 4}, job, [][]int{{3, 1, 2, 0, 7, 5}})
		// Task 0: 0; task 1: 1, 5; task 2: 2; task 3: 3, 7.
		if want := []int{0, 1, 5, 2, 3, 7}; !reflect.DeepEqual(res.Output, want) {
			t.Errorf("output order = %v, want %v", res.Output, want)
		}
	})
}

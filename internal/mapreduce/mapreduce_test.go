package mapreduce

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// wordCountJob is the canonical MR smoke test. With aggregate, the
// mapper counts its partition's words itself and emits one (word, n)
// per distinct word from its end-of-input hook.
func wordCountJob(r int, aggregate bool) *BoxedJob {
	j := &BoxedJob{
		Name:           "wordcount",
		NumReduceTasks: r,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{
				OnMap: func(ctx *BoxedContext, kv KeyValue) {
					for _, w := range strings.Fields(kv.Value.(string)) {
						ctx.Emit(w, 1)
					}
				},
			}
		},
		NewReducer: func() BoxedReducer {
			return &FuncReducer{
				OnReduce: func(ctx *BoxedContext, key any, values []KeyValue) {
					sum := 0
					for _, v := range values {
						sum += v.Value.(int)
					}
					ctx.Emit(key, sum)
				},
			}
		},
		Partition: func(key any, r int) int { return HashPartition(key.(string), r) },
		Compare:   CompareStrings,
	}
	if aggregate {
		j.NewMapper = func() BoxedMapper { return &aggWordMapper{slot: map[string]int{}} }
	}
	return j
}

// aggWordMapper is the in-mapper-aggregating word count: a per-task
// count table, emitted in first-seen order by Close.
type aggWordMapper struct {
	slot   map[string]int
	words  []string
	counts []int
}

func (a *aggWordMapper) Configure(m, r, partitionIndex int) {}

func (a *aggWordMapper) Map(ctx *BoxedContext, kv KeyValue) {
	for _, w := range strings.Fields(kv.Value.(string)) {
		i, ok := a.slot[w]
		if !ok {
			i = len(a.words)
			a.slot[w] = i
			a.words = append(a.words, w)
			a.counts = append(a.counts, 0)
		}
		a.counts[i]++
	}
}

func (a *aggWordMapper) Close(ctx *BoxedContext) {
	for i, w := range a.words {
		ctx.Emit(w, a.counts[i])
	}
}

func lines(ls ...string) []KeyValue {
	kvs := make([]KeyValue, len(ls))
	for i, l := range ls {
		kvs[i] = KeyValue{Value: l}
	}
	return kvs
}

func countsOf(res *BoxedResult) map[string]int {
	out := make(map[string]int)
	for _, kv := range res.Output {
		out[kv.Key.(string)] = kv.Value.(int)
	}
	return out
}

func TestWordCount(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		for _, r := range []int{1, 2, 7} {
			res, err := (&Engine{}).RunContext(context.Background(), wordCountJob(r, aggregate), [][]KeyValue{
				lines("a b a", "c"),
				lines("b a", "c c c"),
			})
			if err != nil {
				t.Fatalf("r=%d aggregate=%v: %v", r, aggregate, err)
			}
			want := map[string]int{"a": 3, "b": 2, "c": 4}
			if got := countsOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("r=%d aggregate=%v: counts = %v, want %v", r, aggregate, got, want)
			}
		}
	}
}

func TestInMapperAggregationReducesMapOutput(t *testing.T) {
	input := [][]KeyValue{lines("a a a a b", "a b"), lines("b b")}
	plain, err := (&Engine{}).RunContext(context.Background(), wordCountJob(3, false), input)
	if err != nil {
		t.Fatal(err)
	}
	aggregated, err := (&Engine{}).RunContext(context.Background(), wordCountJob(3, true), input)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MapOutputRecords != 9 {
		t.Errorf("plain map output = %d, want 9", plain.MapOutputRecords)
	}
	// Map task 0 emits {a,b}, map task 1 emits {b}: 3 aggregated records.
	if aggregated.MapOutputRecords != 3 {
		t.Errorf("aggregated map output = %d, want 3", aggregated.MapOutputRecords)
	}
	if !reflect.DeepEqual(countsOf(plain), countsOf(aggregated)) {
		t.Error("in-mapper aggregation changed the result")
	}
}

// TestStableMergeOrder verifies the Hadoop-like property BlockSplit
// depends on: within one key group, values arrive in map-task order.
func TestStableMergeOrder(t *testing.T) {
	job := &BoxedJob{
		Name:           "order",
		NumReduceTasks: 1,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{
				OnMap: func(ctx *BoxedContext, kv KeyValue) {
					ctx.Emit("k", kv.Value)
				},
			}
		},
		NewReducer: func() BoxedReducer {
			return &FuncReducer{
				OnReduce: func(ctx *BoxedContext, key any, values []KeyValue) {
					for _, v := range values {
						ctx.Emit(key, v.Value)
					}
				},
			}
		},
		Partition: func(any, int) int { return 0 },
		Compare:   CompareStrings,
	}
	// Run several times: with parallel map tasks the merge order must
	// still be deterministic (map task 0's values first).
	for trial := 0; trial < 10; trial++ {
		res, err := (&Engine{Parallelism: 4}).RunContext(context.Background(), job, [][]KeyValue{
			{{Value: "m0-a"}, {Value: "m0-b"}},
			{{Value: "m1-a"}},
			{{Value: "m2-a"}, {Value: "m2-b"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, kv := range res.Output {
			got = append(got, kv.Value.(string))
		}
		want := []string{"m0-a", "m0-b", "m1-a", "m2-a", "m2-b"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: value order = %v, want %v", trial, got, want)
		}
	}
}

// TestCompositeKeyGrouping mirrors the Figure 1 example: partition on
// part of the key, group on the entire key.
func TestCompositeKeyGrouping(t *testing.T) {
	type ck struct {
		color string
		shape string
	}
	job := &BoxedJob{
		Name:           "figure1",
		NumReduceTasks: 3,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{
				OnMap: func(ctx *BoxedContext, kv KeyValue) {
					k := kv.Key.(ck)
					ctx.Emit(k, 1)
				},
			}
		},
		NewReducer: func() BoxedReducer {
			return &FuncReducer{
				OnReduce: func(ctx *BoxedContext, key any, values []KeyValue) {
					ctx.Emit(key, len(values))
				},
			}
		},
		Partition: func(key any, r int) int { return HashPartition(key.(ck).color, r) },
		Compare: func(a, b any) int {
			ka, kb := a.(ck), b.(ck)
			if c := CompareStrings(ka.color, kb.color); c != 0 {
				return c
			}
			return CompareStrings(ka.shape, kb.shape)
		},
	}
	input := [][]KeyValue{{
		{Key: ck{"gray", "circle"}}, {Key: ck{"gray", "triangle"}},
		{Key: ck{"black", "circle"}}, {Key: ck{"gray", "circle"}},
	}, {
		{Key: ck{"black", "circle"}}, {Key: ck{"light", "triangle"}},
	}}
	res, err := (&Engine{}).RunContext(context.Background(), job, input)
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	total := 0
	for _, kv := range res.Output {
		groups++
		total += kv.Value.(int)
	}
	if groups != 4 {
		t.Errorf("distinct (color,shape) groups = %d, want 4", groups)
	}
	if total != 6 {
		t.Errorf("total grouped records = %d, want 6", total)
	}
}

func TestGroupCoarserThanSort(t *testing.T) {
	// Sort by (a,b), group by a only: reduce sees values sorted by b.
	type ck struct{ a, b int }
	job := &BoxedJob{
		Name:           "secondary-sort",
		NumReduceTasks: 2,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{OnMap: func(ctx *BoxedContext, kv KeyValue) { ctx.Emit(kv.Key, kv.Value) }}
		},
		NewReducer: func() BoxedReducer {
			return &FuncReducer{
				OnReduce: func(ctx *BoxedContext, key any, values []KeyValue) {
					var bs []int
					for _, v := range values {
						bs = append(bs, v.Key.(ck).b)
					}
					ctx.Emit(key.(ck).a, bs)
				},
			}
		},
		Partition: func(key any, r int) int { return key.(ck).a % r },
		Compare: func(x, y any) int {
			kx, ky := x.(ck), y.(ck)
			if c := CompareInts(kx.a, ky.a); c != 0 {
				return c
			}
			return CompareInts(kx.b, ky.b)
		},
		Group: func(x, y any) int { return CompareInts(x.(ck).a, y.(ck).a) },
	}
	res, err := (&Engine{}).RunContext(context.Background(), job, [][]KeyValue{{
		{Key: ck{0, 5}}, {Key: ck{0, 1}}, {Key: ck{1, 9}}, {Key: ck{0, 3}}, {Key: ck{1, 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{0: {1, 3, 5}, 1: {2, 9}}
	for _, kv := range res.Output {
		a := kv.Key.(int)
		if got := kv.Value.([]int); !reflect.DeepEqual(got, want[a]) {
			t.Errorf("group a=%d: values %v, want %v (secondary sort broken)", a, got, want[a])
		}
	}
}

func TestSideOutputPerTask(t *testing.T) {
	job := wordCountJob(2, false)
	job.NewMapper = func() BoxedMapper {
		return &FuncMapper{
			OnMap: func(ctx *BoxedContext, kv KeyValue) {
				ctx.SideEmit("side", kv.Value)
				ctx.Emit(kv.Value.(string), 1)
			},
		}
	}
	res, err := (&Engine{}).RunContext(context.Background(), job, [][]KeyValue{
		{{Value: "a"}, {Value: "b"}},
		{{Value: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SideOutput[0]) != 2 || len(res.SideOutput[1]) != 1 {
		t.Errorf("side output lengths = %d/%d, want 2/1", len(res.SideOutput[0]), len(res.SideOutput[1]))
	}
	if res.MapMetrics[0].SideOutputRecords != 2 {
		t.Errorf("map 0 side records = %d, want 2", res.MapMetrics[0].SideOutputRecords)
	}
}

func TestValidation(t *testing.T) {
	good := wordCountJob(2, false)
	eng := &Engine{}
	if _, err := eng.RunContext(context.Background(), good, nil); err == nil {
		t.Error("no input partitions: want error")
	}
	bad := wordCountJob(0, false)
	if _, err := eng.RunContext(context.Background(), bad, [][]KeyValue{lines("a")}); err == nil {
		t.Error("r=0: want error")
	}
	noMap := wordCountJob(1, false)
	noMap.NewMapper = nil
	if _, err := eng.RunContext(context.Background(), noMap, [][]KeyValue{lines("a")}); err == nil {
		t.Error("nil NewMapper: want error")
	}
	noCmp := wordCountJob(1, false)
	noCmp.Compare = nil
	if _, err := eng.RunContext(context.Background(), noCmp, [][]KeyValue{lines("a")}); err == nil {
		t.Error("nil Compare: want error")
	}
}

func TestBadPartitionFunctionIsAnError(t *testing.T) {
	job := wordCountJob(2, false)
	job.Partition = func(any, int) int { return 99 }
	_, err := (&Engine{}).RunContext(context.Background(), job, [][]KeyValue{lines("a")})
	if err == nil || !strings.Contains(err.Error(), "partition function returned") {
		t.Errorf("out-of-range partition: err = %v", err)
	}
}

func TestPanicsInUserCodeBecomeErrors(t *testing.T) {
	job := wordCountJob(1, false)
	job.NewMapper = func() BoxedMapper {
		return &FuncMapper{OnMap: func(*BoxedContext, KeyValue) { panic("boom in map") }}
	}
	if _, err := (&Engine{}).RunContext(context.Background(), job, [][]KeyValue{lines("a")}); err == nil || !strings.Contains(err.Error(), "boom in map") {
		t.Errorf("map panic: err = %v", err)
	}
	job2 := wordCountJob(1, false)
	job2.NewReducer = func() BoxedReducer {
		return &FuncReducer{OnReduce: func(*BoxedContext, any, []KeyValue) { panic("boom in reduce") }}
	}
	if _, err := (&Engine{}).RunContext(context.Background(), job2, [][]KeyValue{lines("a")}); err == nil || !strings.Contains(err.Error(), "boom in reduce") {
		t.Errorf("reduce panic: err = %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	res, err := (&Engine{}).RunContext(context.Background(), wordCountJob(2, false), [][]KeyValue{
		lines("a b", "c d e"),
		lines("f"),
	})
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestUserCounters(t *testing.T) {
	job := wordCountJob(2, false)
	job.NewReducer = func() BoxedReducer {
		return &FuncReducer{
			OnReduce: func(ctx *BoxedContext, key any, values []KeyValue) {
				ctx.Inc("groups", 1)
				ctx.Inc("values", int64(len(values)))
			},
		}
	}
	res, err := (&Engine{}).RunContext(context.Background(), job, [][]KeyValue{lines("a b a")})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counter("groups"); got != 2 {
		t.Errorf("groups counter = %d, want 2", got)
	}
	if got := res.Counter("values"); got != 3 {
		t.Errorf("values counter = %d, want 3", got)
	}
	if got := res.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

// TestDeterminismAcrossParallelism: identical output regardless of
// worker count.
func TestDeterminismAcrossParallelism(t *testing.T) {
	input := [][]KeyValue{
		lines("x y z x", "w w"),
		lines("y y y"),
		lines("z"),
		lines("q r s t u v w x y z"),
	}
	var baseline []KeyValue
	for _, par := range []int{1, 2, 4, 8} {
		res, err := (&Engine{Parallelism: par}).RunContext(context.Background(), wordCountJob(5, true), input)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res.Output
			continue
		}
		if !reflect.DeepEqual(res.Output, baseline) {
			t.Errorf("parallelism %d changed output", par)
		}
	}
}

func TestTaskKindString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("TaskKind strings wrong")
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for r := 1; r <= 17; r++ {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("key-%d", i)
			p := HashPartition(key, r)
			if p < 0 || p >= r {
				t.Fatalf("HashPartition(%q, %d) = %d out of range", key, r, p)
			}
			if p != HashPartition(key, r) {
				t.Fatalf("HashPartition not deterministic for %q", key)
			}
		}
	}
}

func TestCompareHelpers(t *testing.T) {
	if CompareStrings("a", "b") >= 0 || CompareStrings("b", "a") <= 0 || CompareStrings("a", "a") != 0 {
		t.Error("CompareStrings wrong")
	}
	if CompareInts(1, 2) >= 0 || CompareInts(2, 1) <= 0 || CompareInts(3, 3) != 0 {
		t.Error("CompareInts wrong")
	}
	if CompareInt64s(1, 2) >= 0 || CompareInt64s(2, 1) <= 0 || CompareInt64s(3, 3) != 0 {
		t.Error("CompareInt64s wrong")
	}
}

// TestReduceOutputOrderedByTask: outputs concatenate in reduce-task
// index order.
func TestReduceOutputOrderedByTask(t *testing.T) {
	job := &BoxedJob{
		Name:           "task-order",
		NumReduceTasks: 4,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{OnMap: func(ctx *BoxedContext, kv KeyValue) { ctx.Emit(kv.Value.(int), nil) }}
		},
		NewReducer: func() BoxedReducer {
			return &FuncReducer{OnReduce: func(ctx *BoxedContext, key any, _ []KeyValue) { ctx.Emit(key, nil) }}
		},
		Partition: func(key any, r int) int { return key.(int) % r },
		Compare:   func(a, b any) int { return CompareInts(a.(int), b.(int)) },
	}
	res, err := (&Engine{Parallelism: 4}).RunContext(context.Background(), job, [][]KeyValue{{
		{Value: 3}, {Value: 1}, {Value: 2}, {Value: 0}, {Value: 7}, {Value: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, kv := range res.Output {
		got = append(got, kv.Key.(int))
	}
	// Task 0: 0; task 1: 1, 5; task 2: 2; task 3: 3, 7.
	want := []int{0, 1, 5, 2, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("output order = %v, want %v", got, want)
	}
}

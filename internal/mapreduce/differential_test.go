package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// This file checks the engine against a deliberately naive sequential
// reference implementation of the MapReduce model of Section II:
// map every record, bucket by part, sort each bucket by comp keeping
// map-task order for ties, group by group, reduce each group. Random
// jobs over random inputs must agree exactly.

// refRecord tags a map-output pair with its origin for the stable tie
// ordering.
type refRecord struct {
	kv      KeyValue
	mapTask int
	seq     int
}

// referenceRun is the naive model implementation.
func referenceRun(job *BoxedJob, input [][]KeyValue) []KeyValue {
	r := job.NumReduceTasks
	buckets := make([][]refRecord, r)
	for mi, part := range input {
		mapper := job.NewMapper()
		mapper.Configure(len(input), r, mi)
		ctx := &BoxedContext{metrics: &TaskMetrics{}}
		for _, kv := range part {
			mapper.Map(ctx, kv)
		}
		for seq, kv := range ctx.out {
			p := job.Partition(kv.Key, r)
			buckets[p] = append(buckets[p], refRecord{kv: kv, mapTask: mi, seq: seq})
		}
	}
	var out []KeyValue
	for ri := 0; ri < r; ri++ {
		b := buckets[ri]
		slices.SortStableFunc(b, func(x, y refRecord) int {
			if c := job.Compare(x.kv.Key, y.kv.Key); c != 0 {
				return c
			}
			if c := x.mapTask - y.mapTask; c != 0 {
				return c
			}
			return x.seq - y.seq
		})
		reducer := job.NewReducer()
		reducer.Configure(len(input), r, ri)
		ctx := &BoxedContext{metrics: &TaskMetrics{}}
		group := func(a, b any) int {
			if job.Group != nil {
				return job.Group(a, b)
			}
			return job.Compare(a, b)
		}
		for lo := 0; lo < len(b); {
			hi := lo + 1
			for hi < len(b) && group(b[lo].kv.Key, b[hi].kv.Key) == 0 {
				hi++
			}
			vals := make([]KeyValue, hi-lo)
			for i := lo; i < hi; i++ {
				vals[i-lo] = b[i].kv
			}
			reducer.Reduce(ctx, b[lo].kv.Key, vals)
			lo = hi
		}
		out = append(out, ctx.out...)
	}
	return out
}

// randomJob builds a job with composite integer keys whose partition,
// sort, and group functions exercise different key components.
func randomJob(rng *rand.Rand, r int) *BoxedJob {
	type ck struct{ a, b, c int }
	return &BoxedJob{
		Name:           "differential",
		NumReduceTasks: r,
		NewMapper: func() BoxedMapper {
			return &FuncMapper{
				OnMap: func(ctx *BoxedContext, kv KeyValue) {
					v := kv.Value.(int)
					// Deterministic fan-out of 1-3 records per input.
					n := v%3 + 1
					for i := 0; i < n; i++ {
						ctx.Emit(ck{a: v % 5, b: (v + i) % 7, c: v % 2}, v*10+i)
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
					ctx.Emit(key, fmt.Sprintf("n=%d sum=%d", len(values), sum))
				},
			}
		},
		Partition: func(key any, r int) int { return key.(ck).a % r },
		Compare: func(x, y any) int {
			kx, ky := x.(ck), y.(ck)
			if c := CompareInts(kx.a, ky.a); c != 0 {
				return c
			}
			if c := CompareInts(kx.b, ky.b); c != 0 {
				return c
			}
			return CompareInts(kx.c, ky.c)
		},
		// Group on (a, b) only: coarser than the sort.
		Group: func(x, y any) int {
			kx, ky := x.(ck), y.(ck)
			if c := CompareInts(kx.a, ky.a); c != 0 {
				return c
			}
			return CompareInts(kx.b, ky.b)
		},
	}
}

func TestEngineAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 40; trial++ {
		m := rng.Intn(5) + 1
		r := rng.Intn(6) + 1
		input := make([][]KeyValue, m)
		for i := range input {
			n := rng.Intn(30)
			input[i] = make([]KeyValue, n)
			for j := range input[i] {
				input[i][j] = KeyValue{Value: rng.Intn(100)}
			}
		}
		job := randomJob(rng, r)
		want := referenceRun(job, input)
		for _, par := range []int{1, 4} {
			got, err := (&Engine{Parallelism: par}).RunContext(context.Background(), job, input)
			if err != nil {
				t.Fatalf("trial %d (par=%d): %v", trial, par, err)
			}
			if !reflect.DeepEqual(got.Output, nonEmpty(want)) && !reflect.DeepEqual(nonEmpty(got.Output), nonEmpty(want)) {
				t.Fatalf("trial %d (m=%d r=%d par=%d): engine output diverges from the reference model\nengine:    %v\nreference: %v",
					trial, m, r, par, got.Output, want)
			}
			// The streaming k-way merge must produce a BoxedResult that is
			// byte-identical — output, side output, and every TaskMetrics
			// field — to the concat+stable-sort oracle path.
			oracle, err := (&Engine{Parallelism: par, Shuffle: ShuffleConcatSort}).RunContext(context.Background(), job, input)
			if err != nil {
				t.Fatalf("trial %d (par=%d, oracle): %v", trial, par, err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("trial %d (m=%d r=%d par=%d): k-way merge BoxedResult diverges from concat+sort oracle\nmerge:  %+v\noracle: %+v",
					trial, m, r, par, got, oracle)
			}
		}
	}
}

func nonEmpty(kvs []KeyValue) []KeyValue {
	if kvs == nil {
		return []KeyValue{}
	}
	return kvs
}

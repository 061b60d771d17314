package mapreduce_test

// Property test of the map-side sort. The engine sorts 24-byte entries
// by (partition, key code), falls back to Compare on code ties, and
// gathers the records once — into the tail buckets or into a spilled
// run. Whatever the coding, the budget and the parallelism, what the
// reducers see must be slices.SortStableFunc of the map tasks'
// emissions, concatenated in task order, by (partition, Compare). The
// codings include two whose codes vary in one byte only, at either end
// of the code, so a radix sort that mishandles its first or last byte
// position, or the copy back after an odd number of passes, shows.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// seqJob emits each input record's key with its global emission number
// as the value; the reducer passes every (key, number) through in the
// order it received them, so Result.Output is the merged stream itself.
func seqJob(r int, coding mapreduce.KeyCoding[string]) *mapreduce.Job[mapreduce.Pair[string, int], string, int, mapreduce.Pair[string, int]] {
	return &mapreduce.Job[mapreduce.Pair[string, int], string, int, mapreduce.Pair[string, int]]{
		Name:           "seq",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[mapreduce.Pair[string, int], string, int] {
			return &mapreduce.MapperFunc[mapreduce.Pair[string, int], string, int]{
				OnMap: func(ctx *mapreduce.MapContext[mapreduce.Pair[string, int], string, int], rec mapreduce.Pair[string, int]) {
					ctx.Emit(rec.Key, rec.Value)
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
			return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
					for _, v := range values {
						ctx.Emit(mapreduce.Pair[string, int]{Key: v.Key, Value: v.Value})
					}
				},
			}
		},
		// Not a hash: long runs of neighbouring keys share a partition, so
		// buckets are large and uneven.
		Partition: func(key string, r int) int { return len(key) % r },
		Compare:   strings.Compare,
		Coding:    coding,
	}
}

func TestMapSideSortIsStableSortByPartitionAndCompare(t *testing.T) {
	const m, r = 3, 5
	// Under the race detector fewer records, and the largest budget
	// shrunk with them, run every cell below (each task still spills
	// runs of hundreds of records plus a tail) in under a third of the
	// time.
	perTask, bigBudget := 9000, int64(64<<10)
	if raceEnabled {
		perTask, bigBudget = 2500, 12<<10
	}
	codings := map[string]struct {
		coding mapreduce.KeyCoding[string]
		key    func(rng *rand.Rand) string
	}{
		// Keys of at most 16 bytes: the prefix code is the whole key.
		"exact": {
			mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode, Exact: true},
			func(rng *rand.Rand) string { return strings.Repeat("k", 1+rng.Intn(9)) + fmt.Sprint(rng.Intn(40)) },
		},
		// Every key shares its first 16 bytes with hundreds of others: the
		// code decides little and Compare, through idx, the rest.
		"code-ties": {
			mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
			func(rng *rand.Rand) string {
				return fmt.Sprintf("prefix-%d-padding-%s%d", rng.Intn(3), strings.Repeat("x", rng.Intn(6)), rng.Intn(60))
			},
		},
		"no-coding": {
			mapreduce.KeyCoding[string]{},
			func(rng *rand.Rand) string { return strings.Repeat("z", rng.Intn(7)) + fmt.Sprint(rng.Intn(50)) },
		},
		// Runs of one letter, ordered by length: the codes differ only in
		// Lo's low byte (where BlockSplit keeps a value's role), so the
		// sort makes one pass.
		"lo-low-byte": {
			mapreduce.KeyCoding[string]{Encode: func(k string) mapreduce.Code {
				return mapreduce.Code{Hi: 0x5a5a, Lo: 0x3c00 | uint64(len(k))}
			}, Exact: true},
			func(rng *rand.Rand) string { return strings.Repeat("a", 1+rng.Intn(60)) },
		},
		// The same keys with the length in Hi's top byte: one pass, the
		// last byte position.
		"hi-top-byte": {
			mapreduce.KeyCoding[string]{Encode: func(k string) mapreduce.Code {
				return mapreduce.Code{Hi: uint64(len(k))<<56 | 0x77, Lo: 0xff}
			}, Exact: true},
			func(rng *rand.Rand) string { return strings.Repeat("b", 1+rng.Intn(60)) },
		},
	}
	for cname, c := range codings {
		rng := rand.New(rand.NewSource(int64(len(cname))))
		input := make([][]mapreduce.Pair[string, int], m)
		var want []mapreduce.Pair[string, int]
		for i := range input {
			for k := 0; k < perTask; k++ {
				rec := mapreduce.Pair[string, int]{Key: c.key(rng), Value: len(want)}
				input[i] = append(input[i], rec)
				want = append(want, rec)
			}
		}
		job := seqJob(r, c.coding)
		slices.SortStableFunc(want, func(a, b mapreduce.Pair[string, int]) int {
			if pa, pb := job.Partition(a.Key, r), job.Partition(b.Key, r); pa != pb {
				return pa - pb
			}
			return job.Compare(a.Key, b.Key)
		})
		// Budgets: the tail only; runs of a handful of records (most
		// partitions of a run under the insertion sort's 32) plus a tail;
		// runs of thousands of records plus a tail.
		for _, budget := range []int64{0, 300, bigBudget} {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s/budget=%d/par=%d", cname, budget, par)
				e := &mapreduce.Engine{Parallelism: par, SpillBudget: budget, TmpDir: t.TempDir()}
				res, err := job.RunContext(context.Background(), e, input)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if budget > 0 && res.MapMetrics[0].SpillRuns == 0 {
					t.Errorf("%s: nothing spilled", name)
				}
				if !reflect.DeepEqual(res.Output, want) {
					t.Errorf("%s: merged stream is not the stable sort by (partition, Compare)", name)
				}
			}
		}
	}
}

package mapreduce

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// sortElem gives the differential tests an element with heavy key
// duplication (stability is observable through seq).
type sortElem struct {
	key int
	seq int
}

func cmpSortElem(a, b *sortElem) int { return a.key - b.key }

// fullLimiter returns a limiter with tokens free, as a fresh run with
// the given parallelism would see it.
func fullLimiter(parallelism int) *sortLimiter { return newSortLimiter(parallelism) }

// TestParallelSortMatchesSerial is the sort-level differential: for
// sizes straddling every chunking threshold and limiters of several
// widths, the parallel sort must produce the exact slice the serial
// sort (and the library's reference stable sort) produces — including
// the relative order of equal keys.
func TestParallelSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 23, 24, 25, 100, parallelSortMin - 1, parallelSortMin, parallelSortMin + 1, 3 * parallelSortMin, 8*parallelSortMin + 17}
	for _, n := range sizes {
		for _, par := range []int{1, 2, 4, 16} {
			base := make([]sortElem, n)
			for i := range base {
				// Few distinct keys: most comparisons are ties, the
				// hard case for stability.
				base[i] = sortElem{key: rng.Intn(13), seq: i}
			}
			want := slices.Clone(base)
			slices.SortStableFunc(want, func(a, b sortElem) int { return a.key - b.key })

			serial := slices.Clone(base)
			scratch := make([]sortElem, n)
			stableSortSerialG(serial, scratch, cmpSortElem)
			if !slices.Equal(serial, want) {
				t.Fatalf("n=%d: serial sort diverges from reference", n)
			}

			par := par
			parallel := slices.Clone(base)
			stableSortParallelG(parallel, scratch, fullLimiter(par), cmpSortElem)
			if !slices.Equal(parallel, want) {
				t.Fatalf("n=%d parallelism=%d: parallel sort diverges from serial", n, par)
			}
		}
	}
}

// TestParallelSortExhaustedLimiter pins the degraded path: when every
// helper token is taken, the parallel entry point must fall back to the
// serial sort inline (same output, no deadlock) and leave the limiter's
// token count untouched.
func TestParallelSortExhaustedLimiter(t *testing.T) {
	lim := newSortLimiter(4)
	var held int
	for lim.tryAcquire() {
		held++
	}
	if held != 3 {
		t.Fatalf("limiter for parallelism 4 holds %d helper tokens, want 3", held)
	}
	n := 3 * parallelSortMin
	rng := rand.New(rand.NewSource(7))
	a := make([]sortElem, n)
	for i := range a {
		a[i] = sortElem{key: rng.Intn(5), seq: i}
	}
	want := slices.Clone(a)
	slices.SortStableFunc(want, func(x, y sortElem) int { return x.key - y.key })
	stableSortParallelG(a, make([]sortElem, n), lim, cmpSortElem)
	if !slices.Equal(a, want) {
		t.Fatal("exhausted-limiter sort diverges from reference")
	}
	for i := 0; i < held; i++ {
		lim.release()
	}
	if got := len(lim.tokens); got != 3 {
		t.Fatalf("limiter leaked tokens: %d free, want 3", got)
	}
}

// TestSortLimiterSerial pins the serial conventions: parallelism 1 (one
// worker, no helpers) and the nil limiter both refuse tokens.
func TestSortLimiterSerial(t *testing.T) {
	if lim := newSortLimiter(1); lim != nil {
		t.Fatalf("parallelism 1 should yield a nil (serial) limiter, got %d tokens", len(lim.tokens))
	}
	var nilLim *sortLimiter
	if nilLim.tryAcquire() {
		t.Fatal("nil limiter granted a token")
	}
}

// TestEngineSortParallelismDifferential runs a sort-heavy job (every
// record through one reduce partition, forcing one large bucket sort)
// across parallelism 1/2/4 in memory and with a spill budget and
// requires byte-identical Results — the engine-level proof that the
// parallel sort changes nothing observable.
func TestEngineSortParallelismDifferential(t *testing.T) {
	input := sortHeavyInput(4, 6000)
	scrub := func(res *Result[string, string]) {
		for _, ms := range [][]TaskMetrics{res.MapMetrics, res.ReduceMetrics} {
			for i := range ms {
				ms[i].SpillRuns = 0
				ms[i].SpillBytesWritten = 0
				ms[i].SpillBytesRead = 0
			}
		}
	}
	var want *Result[string, string]
	for _, par := range []int{1, 2, 4} {
		for _, budget := range []int64{0, 1 << 16} {
			e := &Engine{Parallelism: par, SpillBudget: budget, TmpDir: t.TempDir()}
			res, err := sortHeavyJob().RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatalf("parallelism=%d budget=%d: %v", par, budget, err)
			}
			scrub(res)
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(want, res) {
				t.Fatalf("parallelism=%d budget=%d: Result diverges from parallelism=1 in-memory baseline", par, budget)
			}
		}
	}
}

// sortHeavyJob shuffles everything into two partitions with heavily
// duplicated keys so per-bucket sorts are large and tie-dense.
func sortHeavyJob() *Job[string, string, string, string] {
	return &Job[string, string, string, string]{
		Name:           "sort-heavy",
		NumReduceTasks: 2,
		NewMapper: func() Mapper[string, string, string] {
			return &MapperFunc[string, string, string]{
				OnMap: func(ctx *MapContext[string, string, string], rec string) {
					// Key = first 2 bytes: few distinct keys, many ties.
					ctx.Emit(rec[:2], rec)
				},
			}
		},
		NewReducer: func() Reducer[string, string, string] {
			return &ReducerFunc[string, string, string]{
				OnReduce: func(ctx *ReduceContext[string], key string, values []Rec[string, string]) {
					ctx.Emit(key + ":" + strconv.Itoa(len(values)) + ":" + values[0].Value + ":" + values[len(values)-1].Value)
				},
			}
		},
		Partition: func(key string, r int) int { return int(key[0]) % r },
		Compare: func(a, b string) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		},
	}
}

func sortHeavyInput(parts, perPart int) [][]string {
	rng := rand.New(rand.NewSource(99))
	input := make([][]string, parts)
	for p := range input {
		recs := make([]string, perPart)
		for i := range recs {
			recs[i] = string(rune('a'+rng.Intn(4))) + string(rune('a'+rng.Intn(3))) + "-" + strconv.Itoa(p) + "-" + strconv.Itoa(i)
		}
		input[p] = recs
	}
	return input
}

// BenchmarkMapSortParallelism measures the map phase of the sort-heavy
// job at parallelism 1 vs 4: the per-bucket sorts dominate, so wall
// time should drop as sort workers are added (on multi-core hardware)
// while allocs/op stays flat — the sort helpers share the run's pooled
// scratch instead of allocating their own.
func BenchmarkMapSortParallelism(b *testing.B) {
	input := sortHeavyInput(4, 50000)
	for _, par := range []int{1, 2, 4} {
		b.Run("p="+strconv.Itoa(par), func(b *testing.B) {
			e := &Engine{Parallelism: par}
			j := sortHeavyJob()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.RunContext(context.Background(), e, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (run with
// `go test -bench=. -benchmem`), the shuffle and kernel benchmarks that
// are the while-you-work micro view of the engine and the comparison
// kernels, and the allocation pins. The repo's yardstick is
// `go run ./benchmark` (benchmark/README.md), not these.
//
// The Figure* benchmarks execute the same experiment harness as
// cmd/erbench; each iteration regenerates the complete figure. Reported
// custom metrics summarize the figure's headline numbers so that
// `-bench` output alone documents the reproduction.
package repro_test

import (
	"cmp"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/report"
	"repro/internal/similarity"
)

func benchOptions() experiments.Options {
	return experiments.DefaultOptions() // 5% scale
}

func cell(b *testing.B, t *report.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "%"), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", row, col, t.Rows[row][col])
	}
	return v
}

// BenchmarkFigure8DatasetStats regenerates the dataset table (entities,
// blocks, largest-block share).
func BenchmarkFigure8DatasetStats(b *testing.B) {
	var largestPairShare float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		largestPairShare = cell(b, t, 0, 6)
	}
	b.ReportMetric(largestPairShare, "DS1-largest-%pairs")
}

// BenchmarkFigure9Skew regenerates the robustness experiment (execution
// time per 10^4 pairs vs. data skew). Metric: how many times slower
// Basic is than BlockSplit at s=1 (paper: >12×).
func BenchmarkFigure9Skew(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		ratio = cell(b, t, last, 2) / cell(b, t, last, 3)
	}
	b.ReportMetric(ratio, "basic/blocksplit@s=1")
}

// BenchmarkFigure10ReduceTasks regenerates the reduce-task sweep.
// Metric: Basic vs BlockSplit at r=160 (paper: factor 6).
func BenchmarkFigure10ReduceTasks(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		ratio = cell(b, t, last, 1) / cell(b, t, last, 2)
	}
	b.ReportMetric(ratio, "basic/blocksplit@r=160")
}

// BenchmarkFigure11Sorted regenerates the sorted-input experiment.
// Metric: BlockSplit's slowdown on sorted input (paper: 1.8×).
func BenchmarkFigure11Sorted(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		slowdown = cell(b, t, last, 2) / cell(b, t, last, 1)
	}
	b.ReportMetric(slowdown, "blocksplit-sorted-slowdown")
}

// BenchmarkFigure12MapOutput regenerates the map-output experiment.
// Metric: PairRange's map output relative to BlockSplit's at r=160
// (paper: PairRange largest for large r).
func BenchmarkFigure12MapOutput(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		ratio = cell(b, t, last, 3) / cell(b, t, last, 2)
	}
	b.ReportMetric(ratio, "pairrange/blocksplit-emits@r=160")
}

// BenchmarkFigure13ScalabilityDS1 regenerates the DS1 scalability sweep.
// Metrics: speedup of BlockSplit and Basic at 100 nodes.
func BenchmarkFigure13ScalabilityDS1(b *testing.B) {
	var bsSpeedup, basicSpeedup float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure13(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		basicSpeedup = cell(b, t, last, 4)
		bsSpeedup = cell(b, t, last, 6)
	}
	b.ReportMetric(basicSpeedup, "basic-speedup@100")
	b.ReportMetric(bsSpeedup, "blocksplit-speedup@100")
}

// BenchmarkFigure14ScalabilityDS2 regenerates the DS2 scalability sweep.
// Metric: PairRange speedup at 100 nodes (paper: DS2 scales much
// further than DS1).
func BenchmarkFigure14ScalabilityDS2(b *testing.B) {
	var prSpeedup float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure14(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		prSpeedup = cell(b, t, last, 6)
	}
	b.ReportMetric(prSpeedup, "pairrange-speedup@100")
}

// shuffleKey is the composite integer key of the shuffle benchmarks.
type shuffleKey struct{ block, sub int }

func compareShuffleKeys(a, b shuffleKey) int {
	if c := cmp.Compare(a.block, b.block); c != 0 {
		return c
	}
	return cmp.Compare(a.sub, b.sub)
}

func shuffleBlockOf(v int) shuffleKey {
	block := v % 37
	if v%5 == 0 {
		block = v % 3 // skew: 20% of records in 3 blocks
	}
	return shuffleKey{block: block, sub: v % 11}
}

// shuffleBenchJob builds a shuffle-heavy identity job on the typed
// engine: composite integer keys with a skewed distribution (a few
// giant groups plus a long tail), the shape the paper's reduce phase
// sees. The mapper re-emits its input; the reducer folds each group to
// one record, so the benchmark time is dominated by spill sort +
// reduce-side merge. coded toggles the binary key code fast path.
func shuffleBenchJob(r int, coded bool) *mapreduce.Job[int, shuffleKey, int, int] {
	job := &mapreduce.Job[int, shuffleKey, int, int]{
		Name:           "shuffle-bench",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[int, shuffleKey, int] {
			return &mapreduce.MapperFunc[int, shuffleKey, int]{
				OnMap: func(ctx *mapreduce.MapContext[int, shuffleKey, int], v int) {
					ctx.Emit(shuffleBlockOf(v), v)
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[shuffleKey, int, int] {
			return &mapreduce.ReducerFunc[shuffleKey, int, int]{
				OnReduce: func(ctx *mapreduce.ReduceContext[int], _ shuffleKey, values []mapreduce.Rec[shuffleKey, int]) {
					sum := 0
					for _, v := range values {
						sum += v.Value
					}
					ctx.Emit(sum)
				},
			}
		},
		Partition: func(key shuffleKey, r int) int { return key.block % r },
		Compare:   compareShuffleKeys,
	}
	if coded {
		job.Coding = mapreduce.KeyCoding[shuffleKey]{
			Encode: func(k shuffleKey) mapreduce.Code {
				return mapreduce.Code{Hi: uint64(k.block), Lo: uint64(k.sub)}
			},
			Exact:     true,
			GroupBits: 128,
		}
	}
	return job
}

func shuffleBenchInput(m, perTask int) [][]int {
	input := make([][]int, m)
	for i := range input {
		input[i] = make([]int, perTask)
		for j := range input[i] {
			input[i][j] = i*perTask + j*7
		}
	}
	return input
}

// BenchmarkShuffleMerge runs a shuffle-dominated job (16 map tasks ×
// 4000 records, 8 reduce tasks) with and without binary key codes, so a
// regression of either comparison path shows directly in -bench output.
func BenchmarkShuffleMerge(b *testing.B) {
	input := shuffleBenchInput(16, 4000)
	for _, mode := range []struct {
		name  string
		coded bool
	}{{"typed-coded", true}, {"typed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			job := shuffleBenchJob(8, mode.coded)
			eng := mapreduce.Engine{Parallelism: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := job.RunContext(context.Background(), &eng, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimilarityKernels measures the kernel the reducers run,
// LevBlock, on whole reduce groups of title-shaped inputs (0 allocs/op
// in steady state — TestLevBlockSteadyStateAllocs asserts the same
// contract).
func BenchmarkSimilarityKernels(b *testing.B) {
	// Two title shapes stress opposite ends of the filter chain: uniform
	// random letters (benchmark/gen.go's shape — few repeated letters, the
	// bit planes decide nearly everything) and dictionary words (English
	// letter frequencies — 'e', 't' and the space saturate the planes and
	// the full-count histogram has to carry the bag filter). The skew
	// workloads' groups are ~1,300 rows; the flat ones' are ~8, where the
	// per-group cost of the block's length buckets shows.
	th := similarity.NewThresholder(0.8)
	for _, shape := range []struct {
		name   string
		titles []string
		group  int
	}{
		{"random-letters", randomLetterTitles(1300), 1300},
		{"random-letters-8-row-groups", randomLetterTitles(1296), 8},
		{"english-8-words", englishTitles(1300, 8), 1300},
		{"english-16-words", englishTitles(1300, 16), 1300},
	} {
		titles, group := shape.titles, shape.group
		pairs := float64(len(titles) / group * group * (group - 1) / 2)
		b.Run("LevBlock/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var blk similarity.LevBlock
			for i := 0; i < b.N; i++ {
				for g := 0; g+group <= len(titles); g += group {
					blk.Use(th)
					for _, s := range titles[g : g+group] {
						blk.Probe(s, true)
					}
					blk.Reset()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
}

// randomLetterTitles builds n titles of the shape benchmark/gen.go gives
// one block: a shared three-letter prefix, then two to five more words
// of uniform random letters.
func randomLetterTitles(n int) []string {
	rng := rand.New(rand.NewSource(5))
	word := func(b []byte, lo, hi int) []byte {
		for i, k := 0, lo+rng.Intn(hi-lo+1); i < k; i++ {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		return b
	}
	titles := make([]string, n)
	for i := range titles {
		b := word([]byte("abc"), 0, 4)
		for w, words := 0, 2+rng.Intn(4); w < words; w++ {
			b = word(append(b, ' '), 2, 8)
		}
		titles[i] = string(b)
	}
	return titles
}

// englishTitles builds n product-title-like strings of the given number
// of dictionary words, the first one shared (a block's titles share
// their blocking prefix).
func englishTitles(n, words int) []string {
	vocab := strings.Fields(`the and for with digital camera lens black white silver
		wireless portable leather stainless steel edition series professional
		compact battery charger adapter cable case cover screen protector
		deluxe premium original replacement universal waterproof
		bluetooth speaker headphones keyboard mouse monitor printer cartridge
		memory card reader storage external internal drive laptop notebook
		tablet phone smart watch fitness tracker kitchen coffee maker blender
		toaster electric kettle garden outdoor indoor furniture office chair
		desk table lamp light bulb set pack piece inch large small medium`)
	rng := rand.New(rand.NewSource(5))
	titles := make([]string, n)
	for i := range titles {
		var sb strings.Builder
		sb.WriteString("canon")
		for w := 1; w < words; w++ {
			sb.WriteByte(' ')
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		titles[i] = sb.String()
	}
	return titles
}

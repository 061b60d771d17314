// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (run with
// `go test -bench=. -benchmem`), ablation benchmarks for the engine and
// strategy design choices documented in DESIGN.md, and micro-benchmarks
// for the hot paths of the library.
//
// The Figure* benchmarks execute the same experiment harness as
// cmd/erbench; each iteration regenerates the complete figure. Reported
// custom metrics summarize the figure's headline numbers so that
// `-bench` output alone documents the reproduction. DESIGN.md describes
// the shuffle/merge model the BenchmarkShuffleMerge and
// BenchmarkEngineAllocs regression benchmarks guard.
package repro_test

import (
	"cmp"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/report"
	"repro/internal/similarity"
)

func benchOptions() experiments.Options {
	return experiments.DefaultOptions() // 5% scale, calibrated cost model
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
		t, err := experiments.Figure8(b.Context(), benchOptions())
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
		t, err := experiments.Figure9(b.Context(), benchOptions())
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
		t, err := experiments.Figure10(b.Context(), benchOptions())
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
		t, err := experiments.Figure11(b.Context(), benchOptions())
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
		t, err := experiments.Figure12(b.Context(), benchOptions())
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
		t, err := experiments.Figure13(b.Context(), benchOptions())
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
		t, err := experiments.Figure14(b.Context(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		prSpeedup = cell(b, t, last, 6)
	}
	b.ReportMetric(prSpeedup, "pairrange-speedup@100")
}

// ---- Ablation benchmarks (design choices from DESIGN.md) ----

// benchBDM builds the default ablation input: the DS1 stand-in at bench
// scale, partitioned round-robin over 20 map tasks.
func benchBDM(b *testing.B) *bdm.Matrix {
	b.Helper()
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	x, err := bdm.FromPartitions(entity.SplitRoundRobin(es, 20), datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// BenchmarkAblationBDMCombiner measures the BDM job with and without
// the frequency-aggregating combiner (the paper's footnote-2
// optimization). Metric: map-output reduction factor.
func BenchmarkAblationBDMCombiner(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	parts := entity.SplitRoundRobin(es, 20)
	eng := &mapreduce.Engine{Parallelism: 4}
	var reduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, plain, err := bdm.ComputeContext(context.Background(), eng, parts, bdm.JobOptions{
			Attr: datagen.AttrTitle, KeyFunc: datagen.BlockKey(), NumReduceTasks: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, _, combined, err := bdm.ComputeContext(context.Background(), eng, parts, bdm.JobOptions{
			Attr: datagen.AttrTitle, KeyFunc: datagen.BlockKey(), NumReduceTasks: 20, UseCombiner: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		reduction = float64(plain.MapOutputRecords) / float64(combined.MapOutputRecords)
	}
	b.ReportMetric(reduction, "map-output-reduction")
}

// BenchmarkAblationPairRangeRanges sweeps the number of ranges r and
// reports the replication overhead (map emits per input entity) at the
// largest r — the cost PairRange pays for its perfect balance.
func BenchmarkAblationPairRangeRanges(b *testing.B) {
	x := benchBDM(b)
	var emitsPerEntity float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range []int{10, 100, 1000} {
			plan, err := core.PairRange{}.Plan(x, 20, r)
			if err != nil {
				b.Fatal(err)
			}
			emitsPerEntity = float64(plan.TotalMapEmits()) / float64(x.TotalEntities())
		}
	}
	b.ReportMetric(emitsPerEntity, "emits-per-entity@r=1000")
}

// BenchmarkAblationSlotHeterogeneity quantifies how much of the
// benefit-from-more-reduce-tasks effect (Figure 10) stems from slot
// speed heterogeneity: makespan ratio r=20 vs r=160 on heterogeneous
// slots for a perfectly balanced workload.
func BenchmarkAblationSlotHeterogeneity(b *testing.B) {
	cfg := cluster.DefaultSlots(10)
	speeds := cfg.SlotSpeeds(cfg.ReduceSlots())
	coarse := make([]float64, 20) // one 1000-unit task per slot
	for j := range coarse {
		coarse[j] = 1000
	}
	fine := make([]float64, 160) // eight 125-unit tasks per slot
	for j := range fine {
		fine[j] = 125
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcoarse := cluster.ScheduleWithSpeeds(coarse, speeds)
		mfine := cluster.ScheduleWithSpeeds(fine, speeds)
		ratio = mcoarse.Makespan / mfine.Makespan
	}
	b.ReportMetric(ratio, "coarse/fine-makespan")
}

// ---- Micro-benchmarks for the library's hot paths ----

func BenchmarkLevenshteinTitles(b *testing.B) {
	a := "canon eos 5d mark iii digital slr camera body"
	c := "canon eos 5d mark iv digital slr camera body only"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		similarity.Levenshtein(a, c)
	}
}

func BenchmarkPairEnumeration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := int64(0); p < 1000; p++ {
			core.CellOf(p, 1<<20)
		}
	}
}

func BenchmarkBDMFromPartitions(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	parts := entity.SplitRoundRobin(es, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bdm.FromPartitions(parts, datagen.AttrTitle, datagen.BlockKey()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBDMJobExecution(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	parts := entity.SplitRoundRobin(es, 20)
	eng := &mapreduce.Engine{Parallelism: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := bdm.ComputeContext(context.Background(), eng, parts, bdm.JobOptions{
			Attr: datagen.AttrTitle, KeyFunc: datagen.BlockKey(), NumReduceTasks: 20, UseCombiner: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBlockSplit(b *testing.B) {
	x := benchBDM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.BlockSplit{}).Plan(x, 20, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanPairRange(b *testing.B) {
	x := benchBDM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.PairRange{}).Plan(x, 20, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndStrategies executes the full two-job pipeline
// (counting matcher) on a 1% DS1 sample for each strategy — the
// library's end-to-end throughput.
func BenchmarkEndToEndStrategies(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.01))
	parts := entity.SplitRoundRobin(es, 4)
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), er.Config{
					Strategy:    strat,
					Attr:        datagen.AttrTitle,
					BlockKey:    datagen.BlockKey(),
					R:           16,
					RunOptions:  er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
					UseCombiner: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkEngineAllocs tracks the engine's per-job allocation
// footprint on a small fixed job so that allocs/op regressions in the
// task hot paths (bucketing, spill sort, group streaming) are caught.
func BenchmarkEngineAllocs(b *testing.B) {
	input := shuffleBenchInput(4, 500)
	b.Run("typed", func(b *testing.B) {
		job := shuffleBenchJob(4, true)
		eng := mapreduce.Engine{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := job.RunContext(context.Background(), &eng, input); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedule measures the cluster simulator's list scheduler.
func BenchmarkSchedule(b *testing.B) {
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = float64(i%97 + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster.Schedule(costs, 200)
	}
}

// BenchmarkMatcherEndToEnd runs a real edit-distance matching pass over
// a small catalog through the PairRange pipeline (the workload of the
// cmd/ermatch tool). match.EditDistance's block decides a group a column
// at a time; BenchmarkMatcherEndToEndPlain runs the same pipeline with a
// core.PairFunc, whose block loops a per-pair call, so the gap stays
// visible in one -bench run.
func BenchmarkMatcherEndToEnd(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.005))
	parts := entity.SplitRoundRobin(es, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), er.Config{
			Strategy:   core.PairRange{},
			Attr:       datagen.AttrTitle,
			BlockKey:   blocking.NormalizedPrefix(3),
			Matcher:    match.EditDistance(datagen.AttrTitle, 0.8),
			R:          16,
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherEndToEndPlain is the same pipeline with the DP
// reference as a per-pair core.PairFunc (no pre-filters, runes and the
// DP row re-derived on every comparison) — the baseline the kernels are
// measured against.
func BenchmarkMatcherEndToEndPlain(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.005))
	parts := entity.SplitRoundRobin(es, 4)
	matcher := core.PairFunc(func(x, y string) (float64, bool) {
		sim := similarity.LevenshteinSimilarity(x, y)
		return sim, sim >= 0.8
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), er.Config{
			Strategy:   core.PairRange{},
			Attr:       datagen.AttrTitle,
			BlockKey:   blocking.NormalizedPrefix(3),
			Matcher:    matcher,
			R:          16,
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityKernels measures the kernels the reducers run on
// title-shaped inputs: preparing one title, and whole reduce groups
// decided a block at a time (LevBlock) and pair by pair
// (Thresholder.Match on Prepared values, 0 allocs/op in steady state —
// TestPreparedKernelAllocs asserts the same contract).
func BenchmarkSimilarityKernels(b *testing.B) {
	near1 := "canon eos 5d mark iii digital slr camera body"
	b.Run("Prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			similarity.Prepare(near1)
		}
	})
	// Reduce groups decided both ways, on the two title shapes that
	// stress opposite ends of the filter chain: uniform random letters
	// (benchmark/gen.go's shape — few repeated letters, the bit planes
	// decide nearly everything) and dictionary words (English letter
	// frequencies — 'e', 't' and the space saturate the planes and the
	// full-count histogram has to carry the bag filter). The skew
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
						blk.Probe(s, 0, blk.Len(), true)
					}
					blk.Reset()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
		b.Run("Thresholder/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			prep := make([]*similarity.Prepared, group)
			for i := 0; i < b.N; i++ {
				for g := 0; g+group <= len(titles); g += group {
					for j, s := range titles[g : g+group] {
						prep[j] = similarity.PreparePooled(s)
						for _, p := range prep[:j] {
							th.Match(p, prep[j])
						}
					}
					for _, p := range prep {
						p.Release()
					}
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

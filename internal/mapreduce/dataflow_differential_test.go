package mapreduce_test

// Dataflow differential test: the jobs of the paper — the BDM job and
// the match job of every strategy — must produce the reference's Result
// (reference_test.go) on the engine, wherever the intermediate records
// reside: in memory, spilled several runs per map task, and dispatched.
// The comparison covers the complete Result — raw job outputs,
// comparison counts and every TaskMetrics field of the differential
// contract — across Basic/BlockSplit/PairRange × 1..4 map
// partitions × 1..8 reduce tasks, and BlockSplit/PairRange over two
// sources in 2..4 partitions, each with sequential (Parallelism 1) and
// concurrent (Parallelism 4) execution. The reference sorts by Compare
// and groups by Group alone, so this is also the proof that the
// strategies' key codes order and group their keys exactly as their
// comparators do.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/similarity"
)

func titleMatcher(threshold float64) core.PairFunc {
	return func(a, b string) (float64, bool) {
		s := similarity.LevenshteinSimilarity(a, b)
		return s, s >= threshold
	}
}

// checkBDMJob holds the BDM job over parts, annotated by opts, to the
// reference everywhere and returns the reference's matrix and the
// annotated partitions the job counted: Job 2's input.
func checkBDMJob(t *testing.T, name string, parts entity.Partitions, opts bdm.JobOptions, par int) (*bdm.Matrix, [][]bdm.Annotated) {
	t.Helper()
	job := bdm.Job(opts)
	rr, err := mapreduce.NewRemoteRunnable(job)
	if err != nil {
		t.Fatal(err)
	}
	input := bdm.Annotate(parts, opts.Attr, opts.KeyFunc)
	// A task's records of one block are one matrix cell when the mapper
	// aggregates, so its runs are few.
	want := checkEverywhere(t, name+"/bdm", job, rr, par, input, 1)
	return matrixOf(t, want, len(parts)), input
}

// checkMatchJob holds a strategy's match job to the reference everywhere.
func checkMatchJob(t *testing.T, name string, job core.MatchJob, par int, input [][]core.AnnotatedEntity) {
	t.Helper()
	rr, err := core.RemoteRunnableFor(job)
	if err != nil {
		t.Fatal(err)
	}
	want := checkEverywhere(t, name+"/match", job, rr, par, input, 4)
	if want.Counter(core.ComparisonsCounter) == 0 || len(want.Output) == 0 {
		t.Fatalf("%s: differential vacuous: %d comparisons, %d matches", name, want.Counter(core.ComparisonsCounter), len(want.Output))
	}
}

// strategyInput is one input of the strategy tables: skewedEntities in
// m partitions of one source, or dualCatalog's R partitions followed by
// its S partitions — the layout er.RunDualPipeline gives them.
type strategyInput struct {
	name  string
	parts entity.Partitions
	mR    int // two sources: the first mR partitions hold R; 0 = one source
}

// strategyInputs are m = 1..4 partitions of one source or, with two,
// 1..2 + 1..2 partitions of two.
func strategyInputs(two bool) []strategyInput {
	var ins []strategyInput
	if !two {
		for m := 1; m <= 4; m++ {
			ins = append(ins, strategyInput{name: fmt.Sprintf("m=%d", m), parts: entity.SplitRoundRobin(skewedEntities(), m)})
		}
		return ins
	}
	esR, esS := dualCatalog()
	for mR := 1; mR <= 2; mR++ {
		for mS := 1; mS <= 2; mS++ {
			parts := append(entity.SplitRoundRobin(esR, mR), entity.SplitRoundRobin(esS, mS)...)
			ins = append(ins, strategyInput{name: fmt.Sprintf("mR=%d/mS=%d", mR, mS), parts: parts, mR: mR})
		}
	}
	return ins
}

// sources returns the input's source tags, nil for one source.
func (in strategyInput) sources() []bdm.Source {
	if in.mR == 0 {
		return nil
	}
	sources := make([]bdm.Source, len(in.parts))
	for p := in.mR; p < len(sources); p++ {
		sources[p] = bdm.SourceS
	}
	return sources
}

// run runs the whole pipeline over the input.
func (in strategyInput) run(cfg er.Config) (*er.Result, error) {
	if in.mR == 0 {
		return er.RunPipeline(context.Background(), er.FromPartitions(in.parts), cfg)
	}
	return er.RunDualPipeline(context.Background(), er.FromPartitions(in.parts[:in.mR]), er.FromPartitions(in.parts[in.mR:]), cfg)
}

// checkStrategyMatrix holds both jobs of the workflow to the reference
// for every strategy × input × 1..8 reduce tasks; the strategies that
// need no BDM match one source only.
func checkStrategyMatrix(t *testing.T, ins []strategyInput, pars []int, combiner bool) {
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	for _, in := range ins {
		for r := 1; r <= 8; r++ {
			for _, strat := range strategies {
				if in.mR > 0 && !strat.NeedsBDM() {
					continue
				}
				for _, par := range pars {
					name := fmt.Sprintf("%s/%s/r=%d/par=%d/combiner=%v", strat.Name(), in.name, r, par, combiner)
					var matrix *bdm.Matrix
					input := er.AnnotateInput(in.parts, "title", blocking.NormalizedPrefix(3))
					if strat.NeedsBDM() {
						matrix, input = checkBDMJob(t, name, in.parts, bdm.JobOptions{
							Attr:           "title",
							KeyFunc:        blocking.NormalizedPrefix(3),
							NumReduceTasks: r,
							UseCombiner:    combiner,
						}, par)
					}
					var err error
					if sources := in.sources(); sources != nil {
						if matrix, err = matrix.WithSources(sources); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					job, err := strat.Job(matrix, r, titleMatcher(0.85))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkMatchJob(t, name, job, par, input)
				}
			}
		}
	}
}

func TestDataflowDifferentialStrategies(t *testing.T) {
	checkStrategyMatrix(t, strategyInputs(false), []int{1, 4}, true)
}

func TestDataflowDifferentialDualStrategies(t *testing.T) {
	checkStrategyMatrix(t, strategyInputs(true), []int{1, 4}, true)
}

// dualCatalog builds a skewed two-source catalog: a dominant shared
// block, mid-size blocks, and blocks existing in only one source (which
// a two-source run must skip entirely).
func dualCatalog() (partsR, partsS []entity.Entity) {
	add := func(dst *[]entity.Entity, n int, stem string) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%5),
			))
		}
	}
	add(&partsR, 18, "canon eos") // dominant block, both sources
	add(&partsS, 12, "canon eos")
	add(&partsR, 7, "nikon d850") // mid block, both sources
	add(&partsS, 5, "nikon d850")
	add(&partsR, 4, "sony alpha") // R-only block: no pairs
	add(&partsS, 3, "fuji xt")    // S-only block: no pairs
	add(&partsR, 1, "leica m11")  // cross-source singleton pair
	add(&partsS, 1, "leica m11")
	return partsR, partsS
}

// TestDataflowDifferentialBDMJobPerEntity pins the BDM job that does
// not aggregate — one (blockingKey.partitionIndex, 1) per annotated
// entity — to the reference in memory, spilled and dispatched, and its
// matrix to the one computed directly from the entities.
func TestDataflowDifferentialBDMJobPerEntity(t *testing.T) {
	parts := entity.SplitRoundRobin(skewedEntities(), 3)
	opts := bdm.JobOptions{Attr: "title", KeyFunc: blocking.NormalizedPrefix(3), NumReduceTasks: 4}
	got, _ := checkBDMJob(t, "per-entity", parts, opts, 2)
	want, err := bdm.FromPartitions(parts, opts.Attr, opts.KeyFunc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cells(), want.Cells()) {
		t.Errorf("the job's matrix has %d blocks and differs from the direct one's %d", got.NumBlocks(), want.NumBlocks())
	}
}

// TestBDMJobCountTableAgainstReference holds the aggregating BDM job to
// the reference on the blocking keys its count table could get wrong:
// keys that agree on the 8-byte word the table is probed by and differ
// right after it, after byte 16 (where the sort's prefix code ends too)
// or only in length, the empty key, and more distinct keys per task than
// the table starts with room for, so that it grows with all of them in it.
// Over two sources the job is the same; its matrix, tagged, is the
// direct one tagged.
func TestBDMJobCountTableAgainstReference(t *testing.T) {
	var keys []string
	for i := 0; i < 150; i++ {
		keys = append(keys, fmt.Sprintf("sameword%03d", i), fmt.Sprintf("k%03d", i))
	}
	keys = append(keys, "", "sameword", "samewor", "0123456789abcdefX", "0123456789abcdefY", "0123456789abcdef")
	var es []entity.Entity
	for i, key := range keys {
		for n := 0; n <= i%4; n++ {
			es = append(es, entity.New(fmt.Sprintf("e%03d-%d", i, n), "k", key))
		}
	}
	for _, m := range []int{1, 3} {
		parts := entity.SplitRoundRobin(es, m)
		name := fmt.Sprintf("m=%d", m)
		got, _ := checkBDMJob(t, name, parts, bdm.JobOptions{
			Attr: "k", KeyFunc: blocking.Identity(), NumReduceTasks: 4, UseCombiner: true,
		}, 2)
		want, err := bdm.FromPartitions(parts, "k", blocking.Identity())
		if err != nil {
			t.Fatal(err)
		}
		if got.NumBlocks() != len(keys) || !reflect.DeepEqual(got.Cells(), want.Cells()) {
			t.Fatalf("%s: the job's matrix has %d blocks and differs from the direct one's %d", name, got.NumBlocks(), want.NumBlocks())
		}
		sources := make([]bdm.Source, m)
		sources[m-1] = bdm.SourceS
		gotTagged, err := got.WithSources(sources)
		if err != nil {
			t.Fatal(err)
		}
		wantTagged, err := want.WithSources(sources)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotTagged, wantTagged) {
			t.Fatalf("%s: the job's two-source matrix differs from the direct one", name)
		}
	}
}

package er

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/similarity"
)

func titleMatcher(threshold float64) core.PairFunc {
	return func(a, b string) (float64, bool) {
		sim := similarity.LevenshteinSimilarity(a, b)
		return sim, sim >= threshold
	}
}

func smallDataset() []entity.Entity {
	return []entity.Entity{
		entity.New("a1", "title", "acme rocket skates"),
		entity.New("a2", "title", "acme rocket skates!"),
		entity.New("a3", "title", "acme anvil deluxe"),
		entity.New("b1", "title", "bolt cutter pro"),
		entity.New("b2", "title", "bolt cutter pro max"),
		entity.New("c1", "title", "coyote trap"),
	}
}

func TestRunAllStrategiesAgree(t *testing.T) {
	es := smallDataset()
	want, wantComps := SerialMatch(es, "title", blocking.NormalizedPrefix(3), titleMatcher(0.8))
	if len(want) == 0 {
		t.Fatal("test dataset produced no matches; matcher or data broken")
	}
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		for _, m := range []int{1, 2, 3} {
			res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, m)), Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: blocking.NormalizedPrefix(3),
				Matcher:  titleMatcher(0.8),
				R:        4,
			})
			if err != nil {
				t.Fatalf("%s m=%d: %v", strat.Name(), m, err)
			}
			if !reflect.DeepEqual(res.Matches, want) {
				t.Errorf("%s m=%d: matches = %v, want %v", strat.Name(), m, res.Matches, want)
			}
			if res.Comparisons != wantComps {
				t.Errorf("%s m=%d: comparisons = %d, want %d", strat.Name(), m, res.Comparisons, wantComps)
			}
		}
	}
}

func TestRunAgainstSerialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		spec := datagen.Spec{
			N:      rng.Intn(300) + 20,
			Blocks: rng.Intn(30) + 2,
			Alpha:  0.8,
			Seed:   int64(trial),
		}
		es, _ := datagen.Generate(spec)
		want, _ := SerialMatch(es, datagen.AttrTitle, datagen.BlockKey(), titleMatcher(0.85))
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, rng.Intn(4)+1)), Config{
				Strategy:   strat,
				Attr:       datagen.AttrTitle,
				BlockKey:   datagen.BlockKey(),
				Matcher:    titleMatcher(0.85),
				R:          rng.Intn(8) + 1,
				RunOptions: RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
			})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, strat.Name(), err)
			}
			if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
				t.Fatalf("trial %d %s: matches differ from serial reference (%d vs %d)",
					trial, strat.Name(), len(res.Matches), len(want))
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	es := smallDataset()
	parts := entity.SplitRoundRobin(es, 2)
	if _, err := RunPipeline(context.Background(), FromPartitions(parts), Config{}); err == nil {
		t.Error("empty config: want error")
	}
	if _, err := RunPipeline(context.Background(), FromPartitions(parts), Config{Strategy: core.Basic{}, BlockKey: blocking.Prefix(1)}); err == nil {
		t.Error("R=0: want error")
	}
	if _, err := RunPipeline(context.Background(), FromPartitions(parts), Config{Strategy: core.Basic{}, R: 2}); err == nil {
		t.Error("nil BlockKey: want error")
	}
}

func TestBasicSkipsBDMJob(t *testing.T) {
	es := smallDataset()
	res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.Basic{},
		Attr:     "title",
		BlockKey: blocking.Prefix(3),
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BDM != nil || res.BDMResult != nil {
		t.Error("Basic should not compute a BDM")
	}
	if got := len(res.Workloads()); got != 1 {
		t.Errorf("Basic has %d workloads, want 1 (single job)", got)
	}
	res2, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: blocking.Prefix(3),
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.BDM == nil || len(res2.Workloads()) != 2 {
		t.Error("BlockSplit should run the BDM job first")
	}
}

func TestSimulatedTime(t *testing.T) {
	es := smallDataset()
	res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.PairRange{},
		Attr:     "title",
		BlockKey: blocking.Prefix(3),
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := res.SimulatedTime(cluster.DefaultSlots(2), cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Errorf("simulated time = %g", tm)
	}
}

func TestCollectMatchesDeduplicates(t *testing.T) {
	res := &core.MatchJobResult{Output: []core.MatchOutput{
		{Key: core.NewMatchPair("b", "a")},
		{Key: core.NewMatchPair("a", "b")},
		{Key: core.NewMatchPair("c", "d")},
	}}
	got := CollectMatches(res)
	want := []core.MatchPair{{A: "a", B: "b"}, {A: "c", B: "d"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CollectMatches = %v, want %v", got, want)
	}
}

// TestPlanWorkloadsMatchExecutedWorkloads: the analytic path (planner +
// BDM workload model) must agree with the executing engine's measured
// workloads in every component — the bridge that justifies planner-mode
// figures.
func TestPlanWorkloadsMatchExecutedWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 8; trial++ {
		spec := datagen.Spec{N: rng.Intn(200) + 30, Blocks: rng.Intn(20) + 2, Alpha: 0.8, Seed: int64(trial)}
		es, _ := datagen.Generate(spec)
		m := rng.Intn(4) + 1
		r := rng.Intn(6) + 1
		parts := entity.SplitRoundRobin(es, m)
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			res, err := RunPipeline(context.Background(), FromPartitions(parts), Config{
				Strategy:    strat,
				Attr:        datagen.AttrTitle,
				BlockKey:    datagen.BlockKey(),
				R:           r,
				UseCombiner: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Plans need the BDM; compute it directly for Basic.
			x := res.BDM
			if x == nil {
				var err2 error
				x, err2 = bdm.FromPartitions(parts, datagen.AttrTitle, datagen.BlockKey())
				if err2 != nil {
					t.Fatal(err2)
				}
			}
			planned, _, err := PlanWorkloads(x, strat, m, r, true)
			if err != nil {
				t.Fatal(err)
			}
			executed := res.Workloads()
			if len(planned) != len(executed) {
				t.Fatalf("%s: %d planned workloads vs %d executed", strat.Name(), len(planned), len(executed))
			}
			for i := range planned {
				p, e := planned[i], executed[i]
				if !reflect.DeepEqual(p.MapRecords, e.MapRecords) ||
					!reflect.DeepEqual(p.MapEmits, e.MapEmits) ||
					!reflect.DeepEqual(p.ReduceRecords, e.ReduceRecords) ||
					!reflect.DeepEqual(p.ReduceComparisons, e.ReduceComparisons) {
					t.Fatalf("%s trial %d job %d (%s): planned workload differs from executed\nplanned:  %+v\nexecuted: %+v",
						strat.Name(), trial, i, p.Name, p, e)
				}
			}
		}
	}
}

func TestQualityMetrics(t *testing.T) {
	truth := []core.MatchPair{{A: "a", B: "b"}, {A: "c", B: "d"}, {A: "e", B: "f"}}
	predicted := []core.MatchPair{{A: "b", B: "a"}, {A: "c", B: "d"}, {A: "x", B: "y"}}
	q := Evaluate(predicted, truth)
	if q.TruePositives != 2 || q.FalsePositives != 1 || q.FalseNegatives != 1 {
		t.Fatalf("quality = %+v", q)
	}
	if p := q.Precision(); p != 2.0/3 {
		t.Errorf("precision = %g", p)
	}
	if r := q.Recall(); r != 2.0/3 {
		t.Errorf("recall = %g", r)
	}
	if f := q.F1(); f != 2.0/3 {
		t.Errorf("f1 = %g", f)
	}
	empty := Evaluate(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 || empty.F1() != 1 {
		t.Error("empty evaluation should be perfect")
	}
}

func TestEvaluateDeduplicatesPredictions(t *testing.T) {
	truth := []core.MatchPair{{A: "a", B: "b"}}
	predicted := []core.MatchPair{{A: "a", B: "b"}, {A: "b", B: "a"}}
	q := Evaluate(predicted, truth)
	if q.TruePositives != 1 || q.FalsePositives != 0 {
		t.Errorf("quality = %+v", q)
	}
}

// TestJob1CertificateRefusesAMatrixOffByOne: Job 2 reads exactly the
// partitions Job 1 counted, so a matrix whose column p does not sum to
// partition p's size stops the run with a typed error naming the task
// and both figures; the matrix Job 1 computed passes.
func TestJob1CertificateRefusesAMatrixOffByOne(t *testing.T) {
	parts := entity.SplitRoundRobin(smallDataset(), 3)
	input := AnnotateInput(parts, "title", blocking.Prefix(3))
	x, err := bdm.FromPartitions(parts, "title", blocking.Prefix(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCounted("bdm", x, input); err != nil {
		t.Fatalf("the matrix of the input itself: %v", err)
	}
	cells := x.Cells()
	for i := range cells {
		if cells[i].Partition == 1 {
			cells[i].Count++
			break
		}
	}
	off, err := bdm.FromCells(cells, len(parts))
	if err != nil {
		t.Fatal(err)
	}
	err = checkCounted("bdm", off, input)
	var pm *PlanMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("err = %v, want a *PlanMismatchError", err)
	}
	if want := (PlanMismatchError{Job: "bdm", Task: 1, Figure: pm.Figure, Planned: int64(len(input[1]) + 1), Executed: int64(len(input[1]))}); *pm != want {
		t.Errorf("mismatch = %+v, want %+v", *pm, want)
	}
}

// annotate helper sanity.
func TestAnnotateInput(t *testing.T) {
	// A second attribute, sorted before the key's, that the rows must
	// not carry.
	es := smallDataset()
	for i := range es {
		es[i] = es[i].WithAttr("brand", "brand of "+es[i].ID)
	}
	parts := entity.SplitRoundRobin(es, 2)
	input := AnnotateInput(parts, "title", blocking.Prefix(3))
	if len(input) != 2 {
		t.Fatal("wrong partition count")
	}
	for i, p := range parts {
		for j, e := range p {
			if input[i][j].Key != blocking.Prefix(3)(e.Attr("title")) {
				t.Fatalf("key mismatch at %d/%d", i, j)
			}
			// The row carries the ID and the text of the key's attribute.
			if want := (entity.Row{ID: e.ID, Text: e.Attr("title")}); input[i][j].Value != want {
				t.Fatalf("row at %d/%d = %+v, want %+v", i, j, input[i][j].Value, want)
			}
		}
	}
}

package er

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		es := datagen.Generate(spec)
		want, _ := SerialMatch(es, datagen.AttrTitle, datagen.BlockKey(), titleMatcher(0.85))
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, rng.Intn(4)+1)), Config{
				Strategy:   strat,
				Attr:       datagen.AttrTitle,
				BlockKey:   datagen.BlockKey(),
				Matcher:    titleMatcher(0.85),
				R:          rng.Intn(8) + 1,
				RunOptions: RunOptions{Parallelism: 4},
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
	if _, err := RunPipeline(context.Background(), FromPartitions(parts), Config{Strategy: core.Basic{}, BlockKey: blocking.NormalizedPrefix(1)}); err == nil {
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
		BlockKey: blocking.NormalizedPrefix(3),
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BDM != nil || res.BDMResult != nil {
		t.Error("Basic should run the matching job only, without a BDM")
	}
	res2, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
		Strategy: core.BlockSplit{},
		Attr:     "title",
		BlockKey: blocking.NormalizedPrefix(3),
		R:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.BDM == nil || res2.BDMResult == nil {
		t.Error("BlockSplit should run the BDM job first")
	}
}

// TestCollectMatchesDeduplicates: a run without a sink collects its
// matches as a set in canonical order. Entities that share an ID make
// every strategy emit one pair twice, and the serial oracle, which does
// not deduplicate, lists it twice; the collected matches hold it once.
func TestCollectMatchesDeduplicates(t *testing.T) {
	es := append(smallDataset(), entity.New("a2", "title", "acme rocket skates!!"))
	want, _ := SerialMatch(es, "title", blocking.NormalizedPrefix(3), titleMatcher(0.8))
	if len(slices.Compact(slices.Clone(want))) == len(want) {
		t.Fatal("test vacuous: the oracle lists no pair twice")
	}
	want = slices.Compact(want)
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		res, err := RunPipeline(context.Background(), FromPartitions(entity.SplitRoundRobin(es, 3)), Config{
			Strategy: strat,
			Attr:     "title",
			BlockKey: blocking.NormalizedPrefix(3),
			Matcher:  titleMatcher(0.8),
			R:        4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("%s: matches = %v, want %v", strat.Name(), res.Matches, want)
		}
	}
}

// TestPlanWorkloadsMatchExecutedWorkloads: the analytic path (planner +
// BDM workload model) must agree with the executing engine's per-task
// metrics in every component — the bridge that justifies plan-only
// figures — with Job 1 aggregating per map task or emitting per entity
// (the experiments' ablation row reads the latter off the model). The
// trials are small random DS1-style inputs plus one in Figure 9's
// shape: exponential block sizes keyed by the block attribute itself,
// with more reduce tasks than blocks.
func TestPlanWorkloadsMatchExecutedWorkloads(t *testing.T) {
	type trial struct {
		es   []entity.Entity
		attr string
		key  blocking.KeyFunc
		m, r int
		name string
	}
	rng := rand.New(rand.NewSource(73))
	var trials []trial
	for i := 0; i < 8; i++ {
		spec := datagen.Spec{N: rng.Intn(200) + 30, Blocks: rng.Intn(20) + 2, Alpha: 0.8, Seed: int64(i)}
		trials = append(trials, trial{
			es: datagen.Generate(spec), attr: datagen.AttrTitle, key: datagen.BlockKey(),
			m: rng.Intn(4) + 1, r: rng.Intn(6) + 1, name: fmt.Sprintf("random %d", i),
		})
	}
	trials = append(trials, trial{
		es: datagen.Exponential(600, 10, 0.6, 42), attr: datagen.AttrBlock, key: blocking.Identity(),
		m: 5, r: 16, name: "figure 9 shape",
	})
	for _, tr := range trials {
		parts := entity.SplitRoundRobin(tr.es, tr.m)
		// Plans need the BDM; compute it directly, since Basic has none.
		x, err := bdm.FromPartitions(parts, tr.attr, tr.key)
		if err != nil {
			t.Fatal(err)
		}
		for _, combiner := range []bool{true, false} {
			for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
				res, err := RunPipeline(context.Background(), FromPartitions(parts), Config{
					Strategy:    strat,
					Attr:        tr.attr,
					BlockKey:    tr.key,
					R:           tr.r,
					UseCombiner: combiner,
				})
				if err != nil {
					t.Fatal(err)
				}
				planned, _, err := PlanWorkloads(x, strat, tr.m, tr.r, combiner)
				if err != nil {
					t.Fatal(err)
				}
				var executed []*mapreduce.Metrics
				if res.BDMResult != nil {
					executed = append(executed, &res.BDMResult.Metrics)
				}
				executed = append(executed, &res.MatchResult.Metrics)
				if len(planned) != len(executed) {
					t.Fatalf("%s %s: %d planned jobs vs %d executed", tr.name, strat.Name(), len(planned), len(executed))
				}
				for i := range planned {
					if diff := workloadDiff(planned[i], executed[i]); diff != "" {
						t.Fatalf("%s %s combiner=%v job %d (%s): planned workload differs from executed: %s",
							tr.name, strat.Name(), combiner, i, planned[i].Name, diff)
					}
				}
			}
		}
	}
}

// workloadDiff names the first task whose planned records, emits or
// comparisons differ from what the executed job measured, or returns "".
func workloadDiff(w cluster.JobWorkload, got *mapreduce.Metrics) string {
	if len(w.MapRecords) != len(got.MapMetrics) || len(w.ReduceRecords) != len(got.ReduceMetrics) {
		return fmt.Sprintf("planned %d map and %d reduce tasks, executed %d and %d",
			len(w.MapRecords), len(w.ReduceRecords), len(got.MapMetrics), len(got.ReduceMetrics))
	}
	for i, tm := range got.MapMetrics {
		if w.MapRecords[i] != tm.InputRecords || w.MapEmits[i] != tm.OutputRecords {
			return fmt.Sprintf("map task %d: planned %d records in, %d out; executed %d, %d",
				i, w.MapRecords[i], w.MapEmits[i], tm.InputRecords, tm.OutputRecords)
		}
	}
	for j, tm := range got.ReduceMetrics {
		if w.ReduceRecords[j] != tm.InputRecords || w.ReduceComparisons[j] != tm.Counter("comparisons") {
			return fmt.Sprintf("reduce task %d: planned %d records, %d comparisons; executed %d, %d",
				j, w.ReduceRecords[j], w.ReduceComparisons[j], tm.InputRecords, tm.Counter("comparisons"))
		}
	}
	return ""
}

// TestJob1CertificateRefusesAMatrixOffByOne: Job 2 reads exactly the
// partitions Job 1 counted, so a matrix whose column p does not sum to
// partition p's size stops the run with a typed error naming the task
// and both figures; the matrix Job 1 computed passes.
func TestJob1CertificateRefusesAMatrixOffByOne(t *testing.T) {
	parts := entity.SplitRoundRobin(smallDataset(), 3)
	input := AnnotateInput(parts, "title", blocking.NormalizedPrefix(3))
	x, err := bdm.FromPartitions(parts, "title", blocking.NormalizedPrefix(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCounted("bdm", x, input); err != nil {
		t.Fatalf("the matrix of the input itself: %v", err)
	}
	// The same cells, but the first one of partition 1 counts one more.
	keys := make([]string, x.NumBlocks())
	var counts []bdm.CountRecord
	bumped := false
	for k := range keys {
		keys[k] = x.BlockKey(k)
		for p := range parts {
			if n := x.SizeIn(k, p); n > 0 {
				if p == 1 && !bumped {
					n, bumped = n+1, true
				}
				counts = append(counts, bdm.CountRecord{Key: bdm.Key{Block: int32(k), Partition: int32(p)}, Value: n})
			}
		}
	}
	off, err := bdm.FromCounts(keys, len(parts), counts)
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
		es[i].Attrs = []entity.Attr{{Name: "brand", Value: "brand of " + es[i].ID}, es[i].Attrs[0]}
	}
	parts := entity.SplitRoundRobin(es, 2)
	input := AnnotateInput(parts, "title", blocking.NormalizedPrefix(3))
	x, err := bdm.FromPartitions(parts, "title", blocking.NormalizedPrefix(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(input) != 2 {
		t.Fatal("wrong partition count")
	}
	for i, p := range parts {
		for j, e := range p {
			if x.BlockKey(int(input[i][j].Key)) != blocking.NormalizedPrefix(3)(e.Attr("title")) {
				t.Fatalf("block mismatch at %d/%d", i, j)
			}
			// The row carries the ID and the text of the key's attribute.
			if want := (entity.Row{ID: e.ID, Text: e.Attr("title")}); input[i][j].Value != want {
				t.Fatalf("row at %d/%d = %+v, want %+v", i, j, input[i][j].Value, want)
			}
		}
	}
}

package sn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

func identityKey(v string) string { return v }

func mk(id, key string) entity.Entity { return entity.New(id, "k", key) }

func alwaysMatch(pairs *map[core.MatchPair]int, mu *sync.Mutex) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		mu.Lock()
		(*pairs)[core.NewMatchPair(a.ID, b.ID)]++
		mu.Unlock()
		return 1, true
	}
}

func TestSerialWindow(t *testing.T) {
	es := []entity.Entity{mk("a", "1"), mk("b", "2"), mk("c", "3"), mk("d", "4")}
	pairs, comps := Serial(es, "k", identityKey, 2, func(entity.Entity, entity.Entity) (float64, bool) { return 1, true })
	// w=2: adjacent pairs only: (a,b),(b,c),(c,d).
	if comps != 3 || len(pairs) != 3 {
		t.Fatalf("w=2: comps=%d pairs=%d, want 3/3", comps, len(pairs))
	}
	_, comps = Serial(es, "k", identityKey, 3, nil)
	// w=3: 3 + 2 = 5 pairs.
	if comps != 5 {
		t.Fatalf("w=3: comps=%d, want 5", comps)
	}
	_, comps = Serial(es, "k", identityKey, 10, nil)
	// w >= n: complete graph = 6 pairs.
	if comps != 6 {
		t.Fatalf("w=10: comps=%d, want 6", comps)
	}
}

func TestRunMatchesSerialSmall(t *testing.T) {
	es := []entity.Entity{
		mk("e1", "apple"), mk("e2", "apply"), mk("e3", "banana"),
		mk("e4", "band"), mk("e5", "bandit"), mk("e6", "candy"),
		mk("e7", "canon"), mk("e8", "zebra"),
	}
	for _, w := range []int{2, 3, 5} {
		for _, r := range []int{1, 2, 3, 4, 8} {
			want, wantComps := Serial(es, "k", identityKey, w, func(entity.Entity, entity.Entity) (float64, bool) { return 1, true })
			res, err := RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
				Attr: "k", Key: identityKey, Window: w, R: r,
				Matcher: func(entity.Entity, entity.Entity) (float64, bool) { return 1, true },
			})
			if err != nil {
				t.Fatalf("w=%d r=%d: %v", w, r, err)
			}
			if !reflect.DeepEqual(res.Matches, want) {
				t.Errorf("w=%d r=%d: matches = %v, want %v", w, r, res.Matches, want)
			}
			if res.Comparisons != wantComps {
				t.Errorf("w=%d r=%d: comparisons = %d, want %d", w, r, res.Comparisons, wantComps)
			}
		}
	}
}

// TestRunMatchesSerialFuzz: random keys (with duplicates), windows, and
// task counts — MR SN must equal serial SN exactly, including each pair
// being compared exactly once.
func TestRunMatchesSerialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120) + 2
		es := make([]entity.Entity, n)
		for i := range es {
			es[i] = mk(fmt.Sprintf("e%03d", i), fmt.Sprintf("k%02d", rng.Intn(20)))
		}
		w := rng.Intn(8) + 2
		r := rng.Intn(9) + 1
		m := rng.Intn(4) + 1

		var mu sync.Mutex
		got := make(map[core.MatchPair]int)
		res, err := RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, m)), Config{
			Attr: "k", Key: identityKey, Window: w, R: r,
			Matcher: alwaysMatch(&got, &mu),
		})
		if err != nil {
			t.Fatalf("trial %d (w=%d r=%d): %v", trial, w, r, err)
		}
		want, wantComps := Serial(es, "k", identityKey, w, func(entity.Entity, entity.Entity) (float64, bool) { return 1, true })
		if !reflect.DeepEqual(res.Matches, nonNil(want)) && !reflect.DeepEqual(nonNil(res.Matches), nonNil(want)) {
			t.Fatalf("trial %d (n=%d w=%d r=%d m=%d): %d matches, want %d",
				trial, n, w, r, m, len(res.Matches), len(want))
		}
		if res.Comparisons != wantComps {
			t.Fatalf("trial %d (n=%d w=%d r=%d): comparisons = %d, want %d",
				trial, n, w, r, res.Comparisons, wantComps)
		}
		for p, c := range got {
			if c != 1 {
				t.Fatalf("trial %d: pair %v compared %d times", trial, p, c)
			}
		}
	}
}

func nonNil(ps []core.MatchPair) []core.MatchPair {
	if ps == nil {
		return []core.MatchPair{}
	}
	return ps
}

// TestSkewRobustness: unlike block-based Basic, SN's per-reduce-task
// comparisons stay balanced even when all entities share one key.
func TestSkewRobustness(t *testing.T) {
	es := make([]entity.Entity, 200)
	for i := range es {
		es[i] = mk(fmt.Sprintf("e%03d", i), "same")
	}
	res, err := RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 4)), Config{
		Attr: "k", Key: identityKey, Window: 5, R: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every entity joins at most 4 windows: comparisons ≈ 4n, never n².
	if res.Comparisons >= int64(len(es)*(len(es)-1)/2/4) {
		t.Errorf("SN performed %d comparisons — quadratic blow-up", res.Comparisons)
	}
	want, _ := Serial(es, "k", identityKey, 5, nil)
	_ = want
}

func TestRangeBounds(t *testing.T) {
	counts := map[string]int{"a": 5, "b": 5, "c": 5, "d": 5}
	bounds := rangeBounds([]string{"a", "b", "c", "d"}, counts, 20, 4)
	if !reflect.DeepEqual(bounds, []string{"b", "c", "d"}) {
		t.Errorf("bounds = %v", bounds)
	}
	if got := rangeOf("a", bounds); got != 0 {
		t.Errorf("rangeOf(a) = %d", got)
	}
	if got := rangeOf("b", bounds); got != 1 {
		t.Errorf("rangeOf(b) = %d", got)
	}
	if got := rangeOf("bb", bounds); got != 1 {
		t.Errorf("rangeOf(bb) = %d", got)
	}
	if got := rangeOf("z", bounds); got != 3 {
		t.Errorf("rangeOf(z) = %d", got)
	}
	// r=1: no bounds.
	if b := rangeBounds([]string{"a"}, map[string]int{"a": 1}, 1, 1); b != nil {
		t.Errorf("r=1 bounds = %v", b)
	}
}

func TestRunValidation(t *testing.T) {
	parts := entity.Partitions{{mk("a", "x")}}
	if _, err := RunPipeline(context.Background(), er.FromPartitions(parts), Config{Attr: "k", Window: 3, R: 2}); err == nil {
		t.Error("nil Key: want error")
	}
	if _, err := RunPipeline(context.Background(), er.FromPartitions(parts), Config{Attr: "k", Key: identityKey, Window: 1, R: 2}); err == nil {
		t.Error("window < 2: want error")
	}
	if _, err := RunPipeline(context.Background(), er.FromPartitions(parts), Config{Attr: "k", Key: identityKey, Window: 3, R: 0}); err == nil {
		t.Error("r = 0: want error")
	}
}

func TestRunSingleEntity(t *testing.T) {
	res, err := RunPipeline(context.Background(), er.FromPartitions(entity.Partitions{{mk("only", "x")}}), Config{
		Attr: "k", Key: identityKey, Window: 3, R: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparisons != 0 || len(res.Matches) != 0 {
		t.Errorf("single entity: comparisons=%d matches=%d", res.Comparisons, len(res.Matches))
	}
}

func TestRunParallelEngineDeterminism(t *testing.T) {
	es := make([]entity.Entity, 60)
	for i := range es {
		es[i] = mk(fmt.Sprintf("e%03d", i), fmt.Sprintf("k%d", i%7))
	}
	var base *Result
	for trial := 0; trial < 5; trial++ {
		res, err := RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 3)), Config{
			Attr: "k", Key: identityKey, Window: 4, R: 5,
			Matcher:    func(a, b entity.Entity) (float64, bool) { return 1, a.ID[1] == b.ID[1] },
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Matches, base.Matches) || res.Comparisons != base.Comparisons {
			t.Fatal("parallel execution is not deterministic")
		}
	}
}

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
)

// TestRunRankedMatchesSerialFuzz: rank-partitioned SN equals the
// canonical-order serial reference exactly, including comparison counts
// and compare-once semantics.
func TestRunRankedMatchesSerialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120) + 2
		m := rng.Intn(4) + 1
		parts := make(entity.Partitions, m)
		for i := 0; i < n; i++ {
			p := rng.Intn(m)
			parts[p] = append(parts[p], mk(fmt.Sprintf("e%03d", i), fmt.Sprintf("k%02d", rng.Intn(15))))
		}
		w := rng.Intn(8) + 2
		r := rng.Intn(9) + 1

		var mu sync.Mutex
		got := make(map[core.MatchPair]int)
		res, err := RunRankedPipeline(context.Background(), er.FromPartitions(parts), Config{
			Attr: "k", Key: identityKey, Window: w, R: r,
			Matcher: alwaysMatch(&got, &mu),
		})
		if err != nil {
			t.Fatalf("trial %d (w=%d r=%d m=%d): %v", trial, w, r, m, err)
		}
		want, wantComps := SerialRanked(parts, "k", identityKey, w,
			func(entity.Entity, entity.Entity) (float64, bool) { return 1, true })
		if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
			t.Fatalf("trial %d (n=%d w=%d r=%d m=%d): %d matches, want %d",
				trial, n, w, r, m, len(res.Matches), len(want))
		}
		if res.Comparisons != wantComps {
			t.Fatalf("trial %d: comparisons = %d, want %d", trial, res.Comparisons, wantComps)
		}
		for p, c := range got {
			if c != 1 {
				t.Fatalf("trial %d: pair %v compared %d times", trial, p, c)
			}
		}
	}
}

// TestRankedBalancesSkewedKeys is the point of the variant: with one
// dominant key, the key-based partitioner puts nearly all comparisons on
// one reduce task while the rank partitioner spreads them evenly.
func TestRankedBalancesSkewedKeys(t *testing.T) {
	var es []entity.Entity
	for i := 0; i < 400; i++ {
		es = append(es, mk(fmt.Sprintf("e%03d", i), "dominant"))
	}
	for i := 0; i < 40; i++ {
		es = append(es, mk(fmt.Sprintf("x%03d", i), fmt.Sprintf("rare%02d", i)))
	}
	parts := entity.SplitRoundRobin(es, 4)
	const w, r = 8, 8

	loadsOf := func(res *Result) core.LoadStats {
		loads := make([]int64, len(res.MatchResult.ReduceMetrics))
		for i, rm := range res.MatchResult.ReduceMetrics {
			loads[i] = rm.Counter(core.ComparisonsCounter)
		}
		return core.ComputeLoadStats(loads)
	}

	keyed, err := RunPipeline(context.Background(), er.FromPartitions(parts), Config{Attr: "k", Key: identityKey, Window: w, R: r})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RunRankedPipeline(context.Background(), er.FromPartitions(parts), Config{Attr: "k", Key: identityKey, Window: w, R: r})
	if err != nil {
		t.Fatal(err)
	}

	keyedStats := loadsOf(keyed)
	rankedStats := loadsOf(ranked)
	if keyedStats.MaxOverMean < 3 {
		t.Errorf("key-partitioned SN max/mean = %.2f; expected the dominant key to congest one task", keyedStats.MaxOverMean)
	}
	if rankedStats.MaxOverMean > 1.3 {
		t.Errorf("rank-partitioned SN max/mean = %.2f, want near 1", rankedStats.MaxOverMean)
	}
}

func TestRankedSingleEntityAndValidation(t *testing.T) {
	res, err := RunRankedPipeline(context.Background(), er.FromPartitions(entity.Partitions{{mk("only", "x")}}), Config{
		Attr: "k", Key: identityKey, Window: 3, R: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparisons != 0 || len(res.Matches) != 0 {
		t.Errorf("single entity: comparisons=%d matches=%d", res.Comparisons, len(res.Matches))
	}
	if _, err := RunRankedPipeline(context.Background(), er.FromPartitions(entity.Partitions{{mk("a", "x")}}), Config{Attr: "k", Window: 3, R: 2}); err == nil {
		t.Error("nil Key: want error")
	}
}

// TestRankDistribution checks the canonical-order rank computation.
func TestRankDistribution(t *testing.T) {
	parts := entity.Partitions{
		{mk("a", "k2"), mk("b", "k1")},
		{mk("c", "k1"), mk("d", "k1")},
	}
	d := buildRankDistribution(parts, "k", identityKey, 2)
	if d.total != 4 {
		t.Fatalf("total = %d", d.total)
	}
	// Canonical order: k1 entities (partition 0 first: b, then c, d),
	// then k2 (a). So keyStart[k1]=0, keyStart[k2]=3.
	if d.keyStart["k1"] != 0 || d.keyStart["k2"] != 3 {
		t.Errorf("keyStart = %v", d.keyStart)
	}
	if got := d.partBase["k1"]; got[0] != 0 || got[1] != 1 {
		t.Errorf("k1 partition bases = %v", got)
	}
	if d.perRange != 2 {
		t.Errorf("perRange = %d, want 2", d.perRange)
	}
}

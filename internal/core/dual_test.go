package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
)

// Two-source example in the spirit of Figure 15: source R in one
// partition, source S in two, blocks w/x/y/z where y exists only in R
// (so it needs no processing) and z is the largest block.
func dualExample() (parts entity.Partitions, sources []bdm.Source) {
	mk := func(id, block string) entity.Entity { return entity.New(id, exAttr, block) }
	parts = entity.Partitions{
		// Π0 = R
		{mk("A", "w"), mk("B", "w"), mk("C", "z"), mk("D", "z"), mk("E", "y"), mk("F", "x")},
		// Π1 = S
		{mk("G", "w"), mk("H", "w"), mk("I", "z"), mk("J", "z")},
		// Π2 = S
		{mk("K", "x"), mk("L", "z")},
	}
	sources = []bdm.Source{bdm.SourceR, bdm.SourceS, bdm.SourceS}
	return parts, sources
}

// mustDualBDM is the BDM of parts with partition p tagged sources[p].
func mustDualBDM(tb testing.TB, parts entity.Partitions, sources []bdm.Source) *bdm.Matrix {
	tb.Helper()
	x, err := bdm.FromPartitions(parts, exAttr, blocking.Identity())
	if err == nil {
		x, err = x.WithSources(sources)
	}
	if err != nil {
		tb.Fatalf("two-source BDM: %v", err)
	}
	return x
}

func dualExampleBDM(tb testing.TB) *bdm.Matrix {
	tb.Helper()
	parts, sources := dualExample()
	return mustDualBDM(tb, parts, sources)
}

func TestDualBDMExample(t *testing.T) {
	x := dualExampleBDM(t)
	// Blocks lexicographic: w, x, y, z.
	wantPairs := map[string]int64{"w": 4, "x": 1, "y": 0, "z": 6}
	var total int64
	for key, want := range wantPairs {
		k, ok := blockIndex(x, key)
		if !ok {
			t.Fatalf("block %q missing", key)
		}
		if got := x.BlockPairs(k); got != want {
			t.Errorf("block %q pairs = %d, want %d", key, got, want)
		}
		total += want
	}
	if got := x.Pairs(); got != total {
		t.Errorf("Pairs = %d, want %d", got, total)
	}
	zk, _ := blockIndex(x, "z")
	if got := x.SourceSize(zk, bdm.SourceR); got != 2 {
		t.Errorf("|z,R| = %d, want 2", got)
	}
	if got := x.SourceSize(zk, bdm.SourceS); got != 3 {
		t.Errorf("|z,S| = %d, want 3", got)
	}
	// Entity offsets: L (partition 2, S) is the third S entity of z, and
	// PairRange indexes it after z's two R entities.
	if got := x.EntityOffset(zk, 2); got != 2 {
		t.Errorf("EntityOffset(z, Π2) = %d, want 2", got)
	}
	if got := entityBase(x, zk, 2, false); got != 4 {
		t.Errorf("entityBase(z, Π2) = %d, want 4", got)
	}
}

// expectedDualPairs computes the cross-source pairs serially.
func expectedDualPairs(parts entity.Partitions, sources []bdm.Source) map[MatchPair]bool {
	blocksR := make(map[string][]entity.Entity)
	blocksS := make(map[string][]entity.Entity)
	for p, part := range parts {
		for _, e := range part {
			k := e.Attr(exAttr)
			if sources[p] == bdm.SourceR {
				blocksR[k] = append(blocksR[k], e)
			} else {
				blocksS[k] = append(blocksS[k], e)
			}
		}
	}
	want := make(map[MatchPair]bool)
	for k, rs := range blocksR {
		for _, er := range rs {
			for _, es := range blocksS[k] {
				want[NewMatchPair(er.ID, es.ID)] = true
			}
		}
	}
	return want
}

func TestDualExampleCompleteness(t *testing.T) {
	parts, sources := dualExample()
	x := dualExampleBDM(t)
	want := expectedDualPairs(parts, sources)
	for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
		for _, r := range []int{1, 2, 3, 5, 11} {
			res := runStrategy(t, strat, x, parts, r, matchAll)
			got := comparedPairs(res)
			if len(got) != len(want) {
				t.Fatalf("%s r=%d: %d distinct pairs, want %d", strat.Name(), r, len(got), len(want))
			}
			for p, c := range got {
				if !want[p] || c != 1 {
					t.Fatalf("%s r=%d: pair %v compared %d times (want once, expected=%v)", strat.Name(), r, p, c, want[p])
				}
			}
			if cmp := res.Counter(ComparisonsCounter); cmp != x.Pairs() {
				t.Errorf("%s r=%d: %d comparisons, want P=%d", strat.Name(), r, cmp, x.Pairs())
			}
		}
	}
}

func TestDualBlockSplitSplitsLargestBlock(t *testing.T) {
	x := dualExampleBDM(t)
	asg := buildAssignment(x, 3, 0)
	// P=11, avg=11/3=3: w (4 pairs) and z (6 pairs) split; x (1) stays.
	if asg.avg != 3 {
		t.Fatalf("avg = %d, want 3", asg.avg)
	}
	comps := make(map[taskID]int64)
	for _, task := range asg.ordered {
		comps[task.id] = task.comps
	}
	zk, _ := blockIndex(x, "z")
	if !asg.Split(zk) {
		t.Error("block z was not split despite exceeding the average workload")
	}
	// Split tasks pair R partition 0 with S partitions 1 and 2, never the
	// S partitions with each other or a partition with itself.
	if c := comps[taskID{block: zk, i: 1, j: 0}]; c != 4 {
		t.Errorf("task z.0x1 has %d comps, want 4", c)
	}
	if c := comps[taskID{block: zk, i: 2, j: 0}]; c != 2 {
		t.Errorf("task z.0x2 has %d comps, want 2", c)
	}
	for _, id := range []taskID{{zk, 2, 1}, {zk, 0, 0}, {zk, 1, 1}} {
		if asg.reduceOf(id.block, id.i, id.j) >= 0 {
			t.Errorf("same-source task %v exists", id)
		}
	}
	// Block y has no S entities: no comparisons anywhere.
	yk, _ := blockIndex(x, "y")
	for id, c := range comps {
		if id.block == yk && c != 0 {
			t.Errorf("block y got match task %v with %d comps despite empty S side", id, c)
		}
	}
}

func TestDualPlanMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(120)+2, rng.Intn(3)+1, rng.Intn(3)+1, rng.Intn(6)+1)
		x := mustDualBDM(t, parts, sources)
		r := rng.Intn(10) + 1
		for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
			assertPlanMatchesExecution(t, strat, x, parts, exAttr, r)
		}
	}
}

func TestDualCompletenessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 15; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(100)+2, rng.Intn(3)+1, rng.Intn(3)+1, rng.Intn(5)+1)
		x := mustDualBDM(t, parts, sources)
		want := expectedDualPairs(parts, sources)
		r := rng.Intn(8) + 1
		for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
			got := comparedPairs(runStrategy(t, strat, x, parts, r, matchAll))
			if len(got) != len(want) {
				t.Fatalf("%s trial %d r=%d: %d pairs, want %d", strat.Name(), trial, r, len(got), len(want))
			}
			for p, c := range got {
				if !want[p] || c != 1 {
					t.Fatalf("%s: pair %v count %d", strat.Name(), p, c)
				}
			}
		}
	}
}

func TestDualPairRangeBalanceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(200)+2, 2, 2, rng.Intn(5)+1)
		x := mustDualBDM(t, parts, sources)
		r := rng.Intn(12) + 1
		plan, err := PairRange{}.Plan(x, x.NumPartitions(), r)
		if err != nil {
			t.Fatal(err)
		}
		q := NewRanges(x.Pairs(), r).Q
		for j, c := range plan.ReduceComparisons {
			if c > q {
				t.Fatalf("reduce task %d: %d comparisons > ceil(P/r)=%d", j, c, q)
			}
		}
	}
}

func TestDualRejectsBadParams(t *testing.T) {
	x := dualExampleBDM(t)
	for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
		if _, err := strat.Job(x, 0, nil); err == nil {
			t.Errorf("%s.Job(r=0) succeeded", strat.Name())
		}
		if _, err := strat.Job(nil, 3, nil); err == nil {
			t.Errorf("%s.Job(nil) succeeded", strat.Name())
		}
		if _, err := strat.Plan(nil, 3, 3); err == nil {
			t.Errorf("%s.Plan(nil) succeeded", strat.Name())
		}
	}
}

// randomDualParts builds mr R-partitions and ms S-partitions with skewed
// block membership.
func randomDualParts(rng *rand.Rand, n, mr, ms, blocks int) (entity.Partitions, []bdm.Source) {
	parts := make(entity.Partitions, mr+ms)
	sources := make([]bdm.Source, mr+ms)
	for i := range sources {
		if i >= mr {
			sources[i] = bdm.SourceS
		}
	}
	for i := 0; i < n; i++ {
		b := int(float64(blocks) * rng.Float64() * rng.Float64())
		if b >= blocks {
			b = blocks - 1
		}
		e := entity.New(fmt.Sprintf("e%04d", i), exAttr, fmt.Sprintf("b%03d", b))
		p := rng.Intn(mr + ms)
		parts[p] = append(parts[p], e)
	}
	return parts, sources
}

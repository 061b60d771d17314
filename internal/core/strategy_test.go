package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
)

// matchAll "matches" every pair it is shown, so a job's output holds
// each compared pair once per comparison — the completeness oracle.
var matchAll PairFunc = func(string, string) (float64, bool) { return 1, true }

// comparedPairs counts the pairs of a matchAll job's output: how many
// times the job compared each.
func comparedPairs(res *MatchJobResult) map[MatchPair]int {
	got := make(map[MatchPair]int)
	for _, o := range res.Output {
		got[o.Key]++
	}
	return got
}

// expectedPairs computes the set of within-block pairs serially.
func expectedPairs(parts entity.Partitions) map[MatchPair]bool {
	blocks := make(map[string][]entity.Entity)
	for _, p := range parts {
		for _, e := range p {
			k := e.Attr("k")
			blocks[k] = append(blocks[k], e)
		}
	}
	want := make(map[MatchPair]bool)
	for _, es := range blocks {
		for i := range es {
			for j := i + 1; j < len(es); j++ {
				want[NewMatchPair(es[i].ID, es[j].ID)] = true
			}
		}
	}
	return want
}

// TestStrategyCompleteness is the central invariant: every strategy
// compares every within-block pair exactly once, for a sweep of random
// skewed inputs and task counts.
func TestStrategyCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(120) + 2
		m := rng.Intn(5) + 1
		blocks := rng.Intn(8) + 1
		r := rng.Intn(12) + 1
		parts := randomParts(rng, n, m, blocks)
		x := mustBDM(t, parts)
		want := expectedPairs(parts)

		for _, strat := range []Strategy{Basic{}, BlockSplit{}, PairRange{}} {
			got := comparedPairs(runStrategy(t, strat, x, parts, r, matchAll))
			if len(got) != len(want) {
				t.Fatalf("trial %d (n=%d m=%d r=%d): %s compared %d distinct pairs, want %d",
					trial, n, m, r, strat.Name(), len(got), len(want))
			}
			for p, count := range got {
				if !want[p] {
					t.Fatalf("%s compared unexpected pair %v", strat.Name(), p)
				}
				if count != 1 {
					t.Fatalf("%s compared pair %v %d times, want exactly once", strat.Name(), p, count)
				}
			}
		}
	}
}

// FuzzPlanExecution is the paper's invariant for any matrix: for every
// strategy the shape admits, the executed task metrics equal Plan, and
// every candidate pair is compared exactly once. internal/mapreduce's
// TestPlanExecutionEquivalenceFuzz adds the spilled and dispatched legs.
func FuzzPlanExecution(f *testing.F) {
	// The draws of the seeded loop this target replaced.
	rng := rand.New(rand.NewSource(17))
	for range 20 {
		n, m, blocks, r := rng.Intn(150)+1, rng.Intn(6)+1, rng.Intn(10)+1, rng.Intn(15)+1
		data := make([]byte, 5+n)
		data[0], data[1], data[2] = byte(blocks-1), byte(m-1), byte(r-1)
		for p, part := range randomParts(rng, n, m, blocks) {
			for _, e := range part {
				i, _ := strconv.Atoi(e.ID[1:])
				k, _ := strconv.Atoi(e.Attr("k")[1:])
				data[5+i] = byte(p + m*k)
			}
		}
		f.Add(data)
	}
	// Two sources in partitions 1 and 3 of four, and a ⊥ row of three
	// blocks with keyless entities in both of two partitions.
	f.Add([]byte{2, 3, 6, 1, 0b1010, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 2, 3, 5, 6, 7})
	f.Add([]byte{2, 1, 4, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 6, 7, 0, 1, 2, 7, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeShape(data)
		x := s.matrix(t)
		strategies := []Strategy{BlockSplit{}, PairRange{}}
		if s.kind() == oneSource {
			strategies = append(strategies, Basic{})
		}
		want := s.candidatePairs()
		for _, strat := range strategies {
			res := runStrategy(t, strat, x, s.parts, s.r, matchAll)
			assertPlanEquals(t, strat, x, res)
			got := comparedPairs(res)
			for p, n := range got {
				if !want[p] || n != 1 {
					t.Fatalf("%s r=%d: pair %v compared %d times, a candidate: %v", strat.Name(), s.r, p, n, want[p])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s r=%d: compared %d pairs, want %d", strat.Name(), s.r, len(got), len(want))
			}
		}
	})
}

// planShape is a matrix decoded from fuzz bytes: its partitions, their
// source tags (nil = one source), whether keyless entities form a ⊥
// row, and r.
type planShape struct {
	parts   entity.Partitions
	sources []bdm.Source
	bottom  bool
	r       int
}

// The kinds of planShape.
const (
	oneSource = iota
	twoSources
	bottomRow
)

// decodeShape reads the number of blocks (1–10), of partitions (1–6),
// r (1–16), the kind, the source bits of the partitions, and then one
// byte per entity, at most 200: its partition, and its block or, in a ⊥
// row's shape, no key. Missing header bytes read as zero.
func decodeShape(data []byte) planShape {
	var h [5]byte
	n := copy(h[:], data)
	blocks, m := 1+int(h[0])%10, 1+int(h[1])%6
	s := planShape{parts: make(entity.Partitions, m), r: 1 + int(h[2])%16}
	keys := blocks
	switch h[3] % 3 {
	case twoSources:
		s.sources = make([]bdm.Source, m)
		for p := range s.sources {
			s.sources[p] = bdm.Source(h[4] >> p & 1)
		}
	case bottomRow:
		s.bottom, keys = true, blocks+1
	}
	for i, b := range data[n:min(len(data), n+200)] {
		key := ""
		if k := int(b) / m % keys; k < blocks {
			key = fmt.Sprintf("b%03d", k)
		}
		p := int(b) % m
		s.parts[p] = append(s.parts[p], entity.New(fmt.Sprintf("e%04d", i), "k", key))
	}
	return s
}

func (s planShape) kind() int {
	switch {
	case s.sources != nil:
		return twoSources
	case s.bottom:
		return bottomRow
	}
	return oneSource
}

// matrix is s's BDM.
func (s planShape) matrix(tb testing.TB) *bdm.Matrix {
	tb.Helper()
	x, err := bdm.FromPartitions(s.parts, "k", blocking.Identity())
	switch {
	case err != nil:
	case s.sources != nil:
		x, err = x.WithSources(s.sources)
	case s.bottom:
		x, err = x.WithMissingKeys()
	}
	if err != nil {
		tb.Fatalf("BDM of %d partitions: %v", len(s.parts), err)
	}
	return x
}

// candidatePairs is s's serial oracle: the pairs of one block, across
// sources only with two, and in a ⊥ row every pair with a keyless side.
func (s planShape) candidatePairs() map[MatchPair]bool {
	if s.sources != nil {
		return expectedDualPairs(s.parts, s.sources)
	}
	want := expectedPairs(s.parts)
	if s.bottom {
		all := slices.Concat(s.parts...)
		for _, a := range all {
			for _, b := range all {
				if a.Attr("k") == "" && b.Attr("k") != "" {
					want[NewMatchPair(a.ID, b.ID)] = true
				}
			}
		}
	}
	return want
}

// TestPairRangeBalanceBound: PairRange guarantees every reduce task at
// most ceil(P/r) comparisons.
func TestPairRangeBalanceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		parts := randomParts(rng, rng.Intn(300)+2, rng.Intn(4)+1, rng.Intn(6)+1)
		x := mustBDM(t, parts)
		r := rng.Intn(20) + 1
		plan, err := PairRange{}.Plan(x, x.NumPartitions(), r)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		q := NewRanges(x.Pairs(), r).Q
		for j, c := range plan.ReduceComparisons {
			if c > q {
				t.Fatalf("reduce task %d has %d comparisons > ceil(P/r)=%d", j, c, q)
			}
		}
	}
}

// TestPairRangePlanAllocsFlat: PairRange.Plan allocates the same for a
// handful of shares as for hundreds — the share table is one
// allocation, and a share's entities are a value, not a slice.
func TestPairRangePlanAllocsFlat(t *testing.T) {
	x := mustBDM(t, randomParts(rand.New(rand.NewSource(3)), 400, 4, 12))
	allocs := func(r int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := (PairRange{}).Plan(x, 4, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := newShareTable(x, NewRanges(x.Pairs(), 1)), newShareTable(x, NewRanges(x.Pairs(), 300))
	if len(many.shares) < len(few.shares)+250 {
		t.Fatalf("%d and %d shares: r does not multiply them", len(few.shares), len(many.shares))
	}
	if a, b := allocs(1), allocs(300); a != b {
		t.Errorf("Plan allocates %v times for %d shares, %v for %d", a, len(few.shares), b, len(many.shares))
	}
}

// TestBlockSplitNeverWorseThanWholeBlocks: after splitting, no reduce
// task carries more comparisons than Basic's heaviest block... unless a
// single block already exceeds everything. Weak but useful sanity: the
// max load is bounded by max(largest match task, sum/r rounded up to
// assignment granularity); here we just assert max load <= Basic's max.
func TestBlockSplitMaxLoadNotWorseThanBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		parts := randomParts(rng, rng.Intn(300)+10, rng.Intn(4)+2, rng.Intn(5)+1)
		x := mustBDM(t, parts)
		r := rng.Intn(10) + 2
		basicPlan, err := Basic{}.Plan(x, x.NumPartitions(), r)
		if err != nil {
			t.Fatalf("Basic.Plan: %v", err)
		}
		bsPlan, err := BlockSplit{}.Plan(x, x.NumPartitions(), r)
		if err != nil {
			t.Fatalf("BlockSplit.Plan: %v", err)
		}
		if bsPlan.MaxReduceComparisons() > basicPlan.MaxReduceComparisons() {
			t.Fatalf("BlockSplit max load %d exceeds Basic max load %d",
				bsPlan.MaxReduceComparisons(), basicPlan.MaxReduceComparisons())
		}
	}
}

func TestBasicMapOutputEqualsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	parts := randomParts(rng, 200, 3, 5)
	x := mustBDM(t, parts)
	plan, err := Basic{}.Plan(x, 3, 7)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got, want := plan.TotalMapEmits(), int64(parts.Total()); got != want {
		t.Errorf("Basic map emits = %d, want input size %d (no replication)", got, want)
	}
}

func TestBlockSplitSingleReduceTask(t *testing.T) {
	// r=1: everything lands on one task; avg = P so nothing splits.
	rng := rand.New(rand.NewSource(31))
	parts := randomParts(rng, 80, 3, 4)
	x := mustBDM(t, parts)
	asg := buildAssignment(x, 1, 0)
	for _, task := range asg.ordered {
		if task.id.i != -1 {
			t.Fatalf("block %d was split with r=1", task.id.block)
		}
	}
	if asg.loads[0] != x.Pairs() {
		t.Errorf("r=1 load = %d, want P=%d", asg.loads[0], x.Pairs())
	}
}

func TestBlockSplitSinglePartition(t *testing.T) {
	// m=1: splitting is a no-op (one sub-block = whole block) but the
	// dataflow must still be exhaustive.
	rng := rand.New(rand.NewSource(37))
	parts := entity.Partitions{slices.Concat(randomParts(rng, 100, 1, 3)...)}
	x := mustBDM(t, parts)
	want := expectedPairs(parts)
	got := comparedPairs(runStrategy(t, BlockSplit{}, x, parts, 5, matchAll))
	if len(got) != len(want) {
		t.Errorf("m=1: compared %d pairs, want %d", len(got), len(want))
	}
}

func TestStrategiesHandleAllSingletonBlocks(t *testing.T) {
	// Every entity in its own block: P=0, nothing to compare anywhere.
	parts := entity.Partitions{{
		entity.New("a", "k", "x1"), entity.New("b", "k", "x2"),
	}, {
		entity.New("c", "k", "x3"),
	}}
	x := mustBDM(t, parts)
	if x.Pairs() != 0 {
		t.Fatalf("Pairs = %d, want 0", x.Pairs())
	}
	for _, strat := range []Strategy{Basic{}, BlockSplit{}, PairRange{}} {
		res := runStrategy(t, strat, x, parts, 4, matchAll)
		got := comparedPairs(res)
		if len(got) != 0 {
			t.Errorf("%s compared %d pairs on singleton blocks", strat.Name(), len(got))
		}
		if strat.Name() != "Basic" && res.MapOutputRecords != 0 {
			t.Errorf("%s emitted %d key-value pairs for zero work", strat.Name(), res.MapOutputRecords)
		}
	}
}

func TestStrategyRejectsBadParams(t *testing.T) {
	parts := entity.Partitions{{entity.New("a", "k", "x")}}
	x := mustBDM(t, parts)
	for _, strat := range []Strategy{Basic{}, BlockSplit{}, PairRange{}} {
		if _, err := strat.Job(x, 0, nil); err == nil {
			t.Errorf("%s.Job(r=0) succeeded, want error", strat.Name())
		}
		if _, err := strat.Plan(x, 0, 3); err == nil {
			t.Errorf("%s.Plan(m=0) succeeded, want error", strat.Name())
		}
		if _, err := strat.Plan(x, 2, 3); err == nil {
			t.Errorf("%s.Plan with mismatched m succeeded, want error", strat.Name())
		}
	}
	for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
		if _, err := strat.Job(nil, 3, nil); err == nil {
			t.Errorf("%s.Job(nil BDM) succeeded, want error", strat.Name())
		}
	}
}

// TestGreedyAssignWithinListSchedulingBound: greedy assignment is list
// scheduling: replayed in order, every match task lands on a reduce
// task that was least loaded at the time (ties: lowest index), so the
// max load over r reduce tasks obeys Graham's bound
// r·max ≤ Σcomps + (r−1)·(largest task).
func TestGreedyAssignWithinListSchedulingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		parts := randomParts(rng, rng.Intn(400)+50, 4, rng.Intn(6)+2)
		x := mustBDM(t, parts)
		r := rng.Intn(8) + 2
		a := buildAssignment(x, r, 0)
		var total, largest int64
		loads := make([]int64, r)
		for _, task := range a.ordered {
			if least := slices.Index(loads, slices.Min(loads)); task.reduce != least {
				t.Fatalf("trial %d: task %v on reduce task %d (load %d), least loaded is %d (load %d)",
					trial, task.id, task.reduce, loads[task.reduce], least, loads[least])
			}
			loads[task.reduce] += task.comps
			total += task.comps
			largest = max(largest, task.comps)
		}
		if !slices.Equal(loads, a.loads) {
			t.Fatalf("trial %d: loads %v, tasks sum to %v", trial, a.loads, loads)
		}
		if bound := total + int64(r-1)*largest; int64(r)*slices.Max(loads) > bound {
			t.Fatalf("trial %d: r=%d max load %d, r·max exceeds Σ+(r−1)·largest = %d",
				trial, r, slices.Max(loads), bound)
		}
	}
}

// TestAssignmentDeterminism: identical inputs produce identical
// assignments (required for every map task to agree).
func TestAssignmentDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	parts := randomParts(rng, 150, 3, 5)
	x := mustBDM(t, parts)
	a1 := buildAssignment(x, 7, 0)
	a2 := buildAssignment(x, 7, 0)
	if !reflect.DeepEqual(a1.loads, a2.loads) {
		t.Fatalf("assignment loads differ: %v vs %v", a1.loads, a2.loads)
	}
	for n, t1 := range a1.ordered {
		if t2 := a2.ordered[n]; t2 != t1 {
			t.Fatalf("task %v assigned differently", t1.id)
		}
	}
}

// TestAssignmentDenseLookup: the tables the mappers read answer every
// (k, i, j) as a map of the match tasks does — over random skewed
// inputs whose split blocks often miss a partition — and an unsplit
// block answers with its one task.
func TestAssignmentDenseLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	split, absent := 0, 0
	for trial := 0; trial < 200; trial++ {
		mm := rng.Intn(6) + 1
		parts := randomParts(rng, rng.Intn(150)+1, mm, rng.Intn(10)+1)
		x := mustBDM(t, parts)
		a := buildAssignment(x, rng.Intn(15)+1, 0)
		tasks := make(map[taskID]int)
		for _, task := range a.ordered {
			tasks[task.id] = task.reduce
		}
		if len(tasks) != len(a.ordered) {
			t.Fatalf("trial %d: %d distinct ids among %d tasks", trial, len(tasks), len(a.ordered))
		}
		for k := 0; k < x.NumBlocks(); k++ {
			if !a.Split(k) {
				if got, want := a.reduceOf(k, -1, -1), tasks[taskID{k, -1, -1}]; got != want {
					t.Fatalf("trial %d: unsplit block %d on reduce task %d, want %d", trial, k, got, want)
				}
				continue
			}
			split++
			for i := 0; i < mm; i++ {
				for j := 0; j <= i; j++ {
					want, ok := tasks[taskID{k, i, j}]
					if !ok {
						want = -1
						absent++
					}
					if got := a.reduceOf(k, i, j); got != want {
						t.Fatalf("trial %d: task %d.%dx%d on reduce task %d, want %d", trial, k, j, i, got, want)
					}
				}
			}
		}
	}
	if split == 0 || absent == 0 {
		t.Fatalf("generator drew %d split blocks, %d absent tasks: nothing tested", split, absent)
	}
}

// TestPairRangeEmptyTrailingRanges: when r greatly exceeds P, trailing
// reduce tasks receive nothing, and all pairs are still covered.
func TestPairRangeEmptyTrailingRanges(t *testing.T) {
	parts := entity.Partitions{{
		entity.New("a", "k", "b"), entity.New("b", "k", "b"), entity.New("c", "k", "b"),
	}}
	x := mustBDM(t, parts) // P = 3
	r := 8
	res := runStrategy(t, PairRange{}, x, parts, r, matchAll)
	got := comparedPairs(res)
	if len(got) != 3 {
		t.Fatalf("compared %d pairs, want 3", len(got))
	}
	busy := 0
	for j := range res.ReduceMetrics {
		if res.ReduceMetrics[j].Counter(ComparisonsCounter) > 0 {
			busy++
		}
	}
	if busy != 3 {
		t.Errorf("%d reduce tasks busy, want 3 (one pair each with q=1)", busy)
	}
}

// TestMatchPairCanonical: NewMatchPair orders IDs.
func TestMatchPairCanonical(t *testing.T) {
	if p := NewMatchPair("z", "a"); p.A != "a" || p.B != "z" {
		t.Errorf("NewMatchPair(z,a) = %v", p)
	}
	if got := NewMatchPair("a", "z").String(); got != "a|z" {
		t.Errorf("String = %q", got)
	}
}

// TestBSKeyStrings covers the human-readable key forms used in logs.
func TestBSKeyStrings(t *testing.T) {
	tests := []struct {
		k    BSKey
		want string
	}{
		{BSKey{Reduce: 1, Block: 3, I: -1, J: -1}, "1.3.*"},
		{BSKey{Reduce: 0, Block: 3, I: 1, J: 1}, "0.3.1"},
		{BSKey{Reduce: 2, Block: 3, I: 1, J: 0}, "2.3.0x1"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

// TestPlanSortedInputDegradesBlockSplit reproduces the Figure 11
// mechanism at unit level: with all large-block entities in one
// partition, BlockSplit cannot split effectively and its max reduce load
// grows, while PairRange is unaffected.
func TestPlanSortedInputDegradesBlockSplit(t *testing.T) {
	// One dominant block of 60 entities + 40 singletons, m=4.
	var es []entity.Entity
	for i := 0; i < 60; i++ {
		es = append(es, entity.New(id4("big", i), "k", "big"))
	}
	for i := 0; i < 40; i++ {
		es = append(es, entity.New(id4("s", i), "k", id4("u", i)))
	}
	m, r := 4, 8

	spread := entity.SplitRoundRobin(es, m)  // big block spread over partitions
	clumped := entity.SplitContiguous(es, m) // big block in few partitions

	xSpread := mustBDM(t, spread)
	xClumped := mustBDM(t, clumped)

	bsSpread, err := BlockSplit{}.Plan(xSpread, m, r)
	if err != nil {
		t.Fatal(err)
	}
	bsClumped, err := BlockSplit{}.Plan(xClumped, m, r)
	if err != nil {
		t.Fatal(err)
	}
	if bsClumped.MaxReduceComparisons() <= bsSpread.MaxReduceComparisons() {
		t.Errorf("clumped max load %d should exceed spread max load %d",
			bsClumped.MaxReduceComparisons(), bsSpread.MaxReduceComparisons())
	}

	prSpread, err := PairRange{}.Plan(xSpread, m, r)
	if err != nil {
		t.Fatal(err)
	}
	prClumped, err := PairRange{}.Plan(xClumped, m, r)
	if err != nil {
		t.Fatal(err)
	}
	if prSpread.MaxReduceComparisons() != prClumped.MaxReduceComparisons() {
		t.Errorf("PairRange max load changed with input order: %d vs %d",
			prSpread.MaxReduceComparisons(), prClumped.MaxReduceComparisons())
	}
}

func id4(prefix string, i int) string {
	return prefix + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + "x"
}

// TestLoadsSumToP: for all strategies the per-task comparisons sum to P.
func TestLoadsSumToP(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 15; trial++ {
		parts := randomParts(rng, rng.Intn(200)+2, rng.Intn(4)+1, rng.Intn(6)+1)
		x := mustBDM(t, parts)
		r := rng.Intn(10) + 1
		for _, strat := range []Strategy{Basic{}, BlockSplit{}, PairRange{}} {
			plan, err := strat.Plan(x, x.NumPartitions(), r)
			if err != nil {
				t.Fatalf("%s.Plan: %v", strat.Name(), err)
			}
			if got := sumLoads(plan.ReduceComparisons); got != x.Pairs() {
				t.Errorf("%s: Σ comparisons = %d, want P=%d", strat.Name(), got, x.Pairs())
			}
		}
	}
}

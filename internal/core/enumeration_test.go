package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCellIndexSmall(t *testing.T) {
	// N=5, column-wise: (0,1)=0 (0,2)=1 (0,3)=2 (0,4)=3 (1,2)=4 ...
	want := map[[2]int64]int64{
		{0, 1}: 0, {0, 2}: 1, {0, 3}: 2, {0, 4}: 3,
		{1, 2}: 4, {1, 3}: 5, {1, 4}: 6,
		{2, 3}: 7, {2, 4}: 8,
		{3, 4}: 9,
	}
	for xy, w := range want {
		if got := CellIndex(xy[0], xy[1], 5); got != w {
			t.Errorf("CellIndex(%d,%d,5) = %d, want %d", xy[0], xy[1], got, w)
		}
	}
}

// TestCellIndexBijection checks that the enumeration is a bijection from
// {(x,y): x<y<n} onto [0, n(n−1)/2) for a spread of block sizes.
func TestCellIndexBijection(t *testing.T) {
	for _, n := range []int64{2, 3, 4, 5, 7, 10, 31, 100} {
		total := n * (n - 1) / 2
		seen := make([]bool, total)
		for x := int64(0); x < n; x++ {
			for y := x + 1; y < n; y++ {
				p := CellIndex(x, y, n)
				if p < 0 || p >= total {
					t.Fatalf("n=%d: CellIndex(%d,%d) = %d outside [0,%d)", n, x, y, p, total)
				}
				if seen[p] {
					t.Fatalf("n=%d: index %d hit twice", n, p)
				}
				seen[p] = true
			}
		}
	}
}

// TestCellOfInverse is the quick-check property: CellOf inverts
// CellIndex for arbitrary (p, n).
func TestCellOfInverse(t *testing.T) {
	f := func(pRaw uint32, nRaw uint8) bool {
		n := int64(nRaw%120) + 2
		total := n * (n - 1) / 2
		p := int64(pRaw) % total
		x, y := CellOf(p, n)
		return x >= 0 && x < y && y < n && CellIndex(x, y, n) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCellOfPanicsOutOfRange(t *testing.T) {
	for _, p := range []int64{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CellOf(%d, 5) did not panic", p)
				}
			}()
			CellOf(p, 5)
		}()
	}
}

func TestColumnStartAndLen(t *testing.T) {
	// Columns must tile [0, n(n−1)/2) exactly.
	for _, n := range []int64{2, 3, 5, 17, 64} {
		pos := int64(0)
		for x := int64(0); x < n-1; x++ {
			if got := ColumnStart(x, n); got != pos {
				t.Fatalf("n=%d: ColumnStart(%d) = %d, want %d", n, x, got, pos)
			}
			pos += ColumnLen(x, n)
		}
		if pos != n*(n-1)/2 {
			t.Fatalf("n=%d: columns cover %d pairs, want %d", n, pos, n*(n-1)/2)
		}
	}
}

func TestRangesBounds(t *testing.T) {
	tests := []struct {
		p    int64
		r    int
		q    int64
		last int64 // size of final non-empty range
	}{
		{20, 3, 7, 6},
		{10, 5, 2, 2},
		{7, 3, 3, 1},
		{1, 4, 1, 1},
		{0, 3, 1, 0},
		{100, 1, 100, 100},
	}
	for _, tc := range tests {
		rg := NewRanges(tc.p, tc.r)
		if rg.Q != tc.q {
			t.Errorf("NewRanges(%d,%d).Q = %d, want %d", tc.p, tc.r, rg.Q, tc.q)
		}
		var total int64
		for k := 0; k < tc.r; k++ {
			total += rg.Size(k)
		}
		if total != tc.p {
			t.Errorf("NewRanges(%d,%d): range sizes sum to %d", tc.p, tc.r, total)
		}
	}
}

// TestRangesPartitionProperty: every pair index belongs to exactly the
// range whose bounds contain it.
func TestRangesPartitionProperty(t *testing.T) {
	f := func(pRaw uint16, rRaw uint8) bool {
		p := int64(pRaw)%5000 + 1
		r := int(rRaw)%64 + 1
		rg := NewRanges(p, r)
		for pi := int64(0); pi < p; pi++ {
			k := rg.Index(pi)
			lo, hi := rg.Bounds(k)
			if pi < lo || pi >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bruteRelevantRanges recomputes an entity's relevant ranges by
// enumerating all its pairs: those of the triangle of n entities whose
// first entity is below the row cap nR.
func bruteRelevantRanges(rg Ranges, ex, n, nR, off int64) []int {
	set := make(map[int]bool)
	for k := int64(0); k < min(ex, nR); k++ {
		set[rg.Index(CellIndex(k, ex, n)+off)] = true
	}
	for y := ex + 1; y < n && ex < nR; y++ {
		set[rg.Index(CellIndex(ex, y, n)+off)] = true
	}
	out := make([]int, 0, len(set))
	for r := 0; r < rg.R; r++ {
		if set[r] {
			out = append(out, r)
		}
	}
	return out
}

// drawTriangle draws a block of n entities and its row cap: n for an
// ordinary block in half the trials, a ⊥ row's keyless count in [1, n]
// in the other half.
func drawTriangle(rng *rand.Rand, maxN int) geometry {
	n := int64(rng.Intn(maxN) + 2)
	if rng.Intn(2) == 0 {
		return geometry{n: n, nR: n}
	}
	return geometry{n: n, nR: 1 + rng.Int63n(n)}
}

func TestRelevantRangesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 600; trial++ {
		g := drawTriangle(rng, 40)
		off := int64(rng.Intn(100))
		total := off + ColumnStart(g.nR, g.n) + int64(rng.Intn(50))
		r := rng.Intn(20) + 1
		rg := NewRanges(total, r)
		for ex := int64(0); ex < g.n; ex++ {
			got := rg.relevantRanges(g, ex, off, nil)
			want := bruteRelevantRanges(rg, ex, g.n, g.nR, off)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v off=%d r=%d ex=%d: relevantRanges = %v, want %v", g, off, r, ex, got, want)
			}
		}
	}
}

func TestRelevantRangesSingletonBlock(t *testing.T) {
	rg := NewRanges(100, 4)
	if got := rg.relevantRanges(geometry{n: 1, nR: 1}, 0, 0, nil); len(got) != 0 {
		t.Errorf("singleton block entity has relevant ranges %v, want none", got)
	}
}

// bruteRelevantEntities recomputes the entity set touching local pair
// interval [a,b) by enumeration.
func bruteRelevantEntities(a, b, n int64) map[int64]bool {
	set := make(map[int64]bool)
	for p := a; p < b; p++ {
		x, y := CellOf(p, n)
		set[x] = true
		set[y] = true
	}
	return set
}

func TestRelevantEntitiesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		g := drawTriangle(rng, 30)
		n, total := g.n, ColumnStart(g.nR, g.n)
		a := int64(rng.Intn(int(total)))
		b := a + 1 + int64(rng.Intn(int(total-a)))
		ivs := g.relevant(a, b)
		want := bruteRelevantEntities(a, b, n)
		var gotCount int64
		got := make(map[int64]bool)
		for _, iv := range ivs {
			gotCount += iv.len()
			for e := iv.lo; e < iv.hi; e++ {
				got[e] = true
			}
		}
		if int64(len(got)) != gotCount {
			t.Fatalf("n=%d [%d,%d): intervals overlap after merge: %v", n, a, b, ivs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d [%d,%d): relevantEntities = %v, want %v entities", n, a, b, ivs, len(want))
		}
	}
}

func TestRelevantEntitiesEmptyAndDegenerate(t *testing.T) {
	if ivs := relevantEntities(5, 5, 10); len(ivs) != 0 {
		t.Errorf("empty interval gave %v", ivs)
	}
	if ivs := relevantEntities(0, 1, 1); len(ivs) != 0 {
		t.Errorf("block of size 1 gave %v", ivs)
	}
	// Whole triangle: all n entities.
	ivs := relevantEntities(0, 10, 5)
	if intervalsTotal(ivs) != 5 {
		t.Errorf("full interval covers %d entities, want 5 (%v)", intervalsTotal(ivs), ivs)
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{5, 7}, {1, 3}, {2, 4}, {7, 7}, {6, 9}})
	want := []interval{{1, 4}, {5, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mergeIntervals = %v, want %v", got, want)
	}
}

func TestIntersectLen(t *testing.T) {
	tests := []struct {
		iv       interval
		blo, bhi int64
		want     int64
	}{
		{interval{0, 10}, 3, 7, 4},
		{interval{0, 10}, 10, 20, 0},
		{interval{5, 8}, 0, 100, 3},
		{interval{5, 8}, 7, 7, 0},
	}
	for _, tc := range tests {
		if got := intersectLen(tc.iv, tc.blo, tc.bhi); got != tc.want {
			t.Errorf("intersectLen(%v, %d, %d) = %d, want %d", tc.iv, tc.blo, tc.bhi, got, tc.want)
		}
	}
}

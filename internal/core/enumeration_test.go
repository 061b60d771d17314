package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/entity"
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
			pos += n - 1 - x // column x pairs x with x+1..n-1
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
			lo, hi := rg.Bounds(k)
			total += hi - lo
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

// bruteRelevantRanges recomputes the relevant ranges of entity e of
// block g, whose pairs start at off, by enumerating its pairs.
func bruteRelevantRanges(rg Ranges, g geometry, e, off int64) []int {
	var out []int
	forEachPair(g, func(x1, x2 int64) {
		if x1 == e || x2 == e {
			out = append(out, rg.Index(g.pair(x1, x2)+off))
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// TestRelevantRangesAgainstBruteForce: the ranges a mapper routes an
// entity to, those of its block's shares that hold it, are exactly the
// ranges of its pairs, ascending; and no share whose first column lies
// above the entity holds it, so the mapper's scan may stop there.
func TestRelevantRangesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 5+rng.Intn(120))
		rng.Read(data)
		x := decodeShape(data).matrix(t)
		ranges := NewRanges(x.Pairs(), 1+rng.Intn(24))
		table := newShareTable(x, ranges)
		for k := range x.NumBlocks() {
			g, off := geometryOf(x, k), x.PairOffset(k)
			for e := int64(0); e < g.n; e++ {
				var got []int
				for _, sh := range table.of(k) {
					if !sh.entities.has(e) {
						continue
					}
					if sh.xa > e {
						t.Fatalf("trial %d block %+v: share of range %d starts at column %d and holds entity %d", trial, g, sh.task, sh.xa, e)
					}
					got = append(got, sh.task)
				}
				if want := bruteRelevantRanges(ranges, g, e, off); !slices.Equal(got, want) {
					t.Fatalf("trial %d block %+v r=%d entity %d: routed to %v, want %v", trial, g, ranges.R, e, got, want)
				}
			}
		}
	}
}

func TestRelevantRangesSingletonBlock(t *testing.T) {
	x := mustBDM(t, entity.Partitions{{entity.New("a", "k", "x"), entity.New("b", "k", "y"), entity.New("c", "k", "y")}})
	k, ok := blockIndex(x, "x")
	if !ok {
		t.Fatal("no block x")
	}
	if got := newShareTable(x, NewRanges(x.Pairs(), 4)).of(k); len(got) != 0 {
		t.Errorf("singleton block has shares %+v, want none", got)
	}
}

// TestShareTableAgainstBruteForce: over random matrices of one source,
// two sources and with a ⊥ row, block k's shares are exactly the ranges
// that hold one of its pairs, in range order, each with its corners,
// and a share's entities are exactly those holding one of the range's
// pairs: the entities a mapper routes there. Singleton and one-source
// blocks of two sources have no share.
func TestShareTableAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var shapes [3]int
	singletons := 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 5+rng.Intn(120))
		rng.Read(data)
		s := decodeShape(data)
		x := s.matrix(t)
		shapes[s.kind()]++
		ranges := NewRanges(x.Pairs(), 1+rng.Intn(24))
		table := newShareTable(x, ranges)
		for k := range x.NumBlocks() {
			g, off := geometryOf(x, k), x.PairOffset(k)
			if g.n == 1 {
				singletons++
			}
			want := make(map[int]map[int64]bool) // range → its entities
			forEachPair(g, func(x1, x2 int64) {
				j := ranges.Index(g.pair(x1, x2) + off)
				if want[j] == nil {
					want[j] = make(map[int64]bool)
				}
				want[j][x1], want[j][x2] = true, true
			})
			shares := table.of(k)
			if len(shares) != len(want) {
				t.Fatalf("trial %d block %+v: %d shares, %d ranges hold its pairs", trial, g, len(shares), len(want))
			}
			for i, sh := range shares {
				if i > 0 && sh.task != shares[i-1].task+1 {
					t.Fatalf("trial %d block %+v: share of range %d follows range %d's", trial, g, sh.task, shares[i-1].task)
				}
				lo, hi := ranges.Bounds(sh.task)
				if c := g.corners(max(lo, off)-off, min(hi, off+x.BlockPairs(k))-off); sh.corners != c || table.at(k, sh.task) != c {
					t.Fatalf("trial %d block %+v range %d: corners %+v, at %+v, want %+v", trial, g, sh.task, sh.corners, table.at(k, sh.task), c)
				}
				var got []int64
				for e := int64(0); e < g.n; e++ {
					if sh.entities.has(e) {
						got = append(got, e)
					}
				}
				if len(got) != len(want[sh.task]) || int64(len(got)) != sh.entities.len() {
					t.Fatalf("trial %d block %+v range %d: entities %v (len %d), want %v", trial, g, sh.task, got, sh.entities.len(), want[sh.task])
				}
				for _, e := range got {
					if !want[sh.task][e] {
						t.Fatalf("trial %d block %+v range %d: entity %d holds none of its pairs", trial, g, sh.task, e)
					}
				}
			}
		}
	}
	if slices.Min(shapes[:]) == 0 || singletons == 0 {
		t.Fatalf("drew %v matrices of one source, two sources and a ⊥ row, %d singleton blocks", shapes, singletons)
	}
}

// drawGeometry draws a block of at most maxN+1 entities in one of the
// three shapes: a triangle, a ⊥ row or an R×S rectangle.
func drawGeometry(rng *rand.Rand, maxN int) geometry {
	g := drawTriangle(rng, maxN)
	if rng.Intn(3) == 0 {
		g.nR, g.rect = 1+rng.Int63n(g.n-1), true
	}
	return g
}

// forEachPair calls f with every pair (x1, x2) of g, x1 ascending.
func forEachPair(g geometry, f func(x1, x2 int64)) {
	for x1 := int64(0); x1 < g.nR; x1++ {
		_, after := g.partners(x1)
		for x2 := after; x2 < g.n; x2++ {
			f(x1, x2)
		}
	}
}

// blockPairs returns the number of pairs of g.
func blockPairs(g geometry) int64 {
	var n int64
	forEachPair(g, func(_, _ int64) { n++ })
	return n
}

// drawShare draws a geometry with pairs and a non-empty share [a, b)
// of them.
func drawShare(rng *rand.Rand, maxN int) (g geometry, a, b int64) {
	g = drawGeometry(rng, maxN)
	total := blockPairs(g)
	a = rng.Int63n(total)
	return g, a, a + 1 + rng.Int63n(total-a)
}

func TestRelevantEntitiesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1500; trial++ {
		g, a, b := drawShare(rng, 30)
		want := make(map[int64]bool)
		forEachPair(g, func(x1, x2 int64) {
			if p := g.pair(x1, x2); a <= p && p < b {
				want[x1], want[x2] = true, true
			}
		})
		ivs := g.relevant(g.corners(a, b))
		got := make(map[int64]bool)
		for i, iv := range ivs {
			if i > 0 && !iv.empty() && iv.lo <= ivs[i-1].hi {
				t.Fatalf("%+v [%d,%d): intervals not disjoint and ascending: %v", g, a, b, ivs)
			}
			for e := iv.lo; e < iv.hi; e++ {
				got[e] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v [%d,%d): relevant = %v, want %v entities", g, a, b, ivs, len(want))
		}
	}
}

// TestCornersMeetAgainstBruteForce: fed a share's relevant entities in
// index order, as a PairRange reducer is, corners.meets keeps exactly
// the entities that are the first of a pair in the share, and compares
// each entity with exactly its partners in the share — over triangles,
// ⊥ rows and R×S rectangles.
func TestCornersMeetAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		g, a, b := drawShare(rng, 30)
		firsts, partners := make(map[int64]bool), make(map[int64][]int64)
		forEachPair(g, func(x1, x2 int64) {
			if p := g.pair(x1, x2); a <= p && p < b {
				firsts[x1] = true
				partners[x2] = append(partners[x2], x1)
			}
		})
		c := g.corners(a, b)
		var rows []int64 // the entities kept, in order
		for _, iv := range g.relevant(c) {
			for x2 := iv.lo; x2 < iv.hi; x2++ {
				first, end, keep := c.meets(g, x2, len(rows))
				if first < 0 || first > end || end > len(rows) {
					t.Fatalf("%+v [%d,%d) %+v: entity %d meets rows [%d,%d) of %d", g, a, b, c, x2, first, end, len(rows))
				}
				if met := rows[first:end]; !slices.Equal(met, partners[x2]) {
					t.Fatalf("%+v [%d,%d) %+v: entity %d meets %v, its partners in the share are %v", g, a, b, c, x2, met, partners[x2])
				}
				if keep != firsts[x2] {
					t.Fatalf("%+v [%d,%d) %+v: entity %d kept = %v, first of a pair in the share = %v", g, a, b, c, x2, keep, firsts[x2])
				}
				if keep {
					rows = append(rows, x2)
				}
			}
		}
	}
}

func TestRelevantEntitiesEmptyAndDegenerate(t *testing.T) {
	for _, tc := range []struct {
		g    geometry
		a, b int64
		want int64
	}{
		{geometry{n: 2, nR: 2}, 0, 1, 2},             // the one pair of a block of two
		{geometry{n: 5, nR: 5}, 0, 10, 5},            // the whole triangle
		{geometry{n: 5, nR: 5}, 9, 10, 2},            // its last pair
		{geometry{n: 5, nR: 1}, 0, 4, 5},             // a ⊥ row of one keyless entity
		{geometry{n: 5, nR: 2, rect: true}, 0, 6, 5}, // the whole rectangle
		{geometry{n: 5, nR: 2, rect: true}, 2, 4, 4}, // one R row's last pair and the next's first
		{geometry{n: 5, nR: 2, rect: true}, 5, 6, 2}, // its last pair
	} {
		if ivs := tc.g.relevant(tc.g.corners(tc.a, tc.b)); ivs.len() != tc.want {
			t.Errorf("%+v [%d,%d): relevant covers %d entities, want %d (%v)", tc.g, tc.a, tc.b, ivs.len(), tc.want, ivs)
		}
	}
}

func TestMergeIntervals(t *testing.T) {
	for _, tc := range []struct{ in, want span }{
		{span{{1, 3}, {2, 4}, {5, 7}}, span{{1, 4}, {5, 7}}}, // overlap
		{span{{1, 3}, {3, 4}, {6, 9}}, span{{1, 4}, {6, 9}}}, // abut
		{span{{1, 9}, {2, 4}, {3, 12}}, span{{1, 12}}},       // a later start below the kept end
		{span{{1, 3}, {7, 7}, {5, 6}}, span{{1, 3}, {5, 6}}}, // an empty one between
		{span{{1, 3}, {4, 5}, {6, 7}}, span{{1, 3}, {4, 5}, {6, 7}}},
	} {
		if got := mergeIntervals(tc.in); got != tc.want {
			t.Errorf("mergeIntervals(%v) = %v, want %v", tc.in, got, tc.want)
		}
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

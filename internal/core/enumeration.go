package core

import (
	"fmt"

	"repro/internal/bdm"
)

// This file implements the pair-enumeration scheme of Section V.
//
// Within a block of N entities (indexed 0..N-1), all pairs (x,y) with
// x < y are enumerated column-wise:
//
//	c(x, y, N) = x·(2N−x−3)/2 + y − 1
//
// so column x occupies the contiguous index interval
// [colStart(x), colStart(x)+N−1−x). Globally, block Φi's pairs start at
// offset o(i) = Σ_{k<i} |Φk|·(|Φk|−1)/2, giving the global pair index
// p_i(x,y) = c(x,y,|Φi|) + o(i).

// CellIndex computes c(x, y, n): the column-wise index of cell (x,y),
// x < y, in the strictly-upper-triangular n×n matrix.
func CellIndex(x, y, n int64) int64 {
	// x·(2n−x−3) is always even: x and (2n−x−3) have opposite parity.
	return x*(2*n-x-3)/2 + y - 1
}

// ColumnStart returns the index of column x's first pair, c(x, x+1, n).
func ColumnStart(x, n int64) int64 {
	return CellIndex(x, x+1, n)
}

// CellOf inverts CellIndex: it returns the (x, y) pair with
// CellIndex(x,y,n) == p. It panics if p is outside [0, n(n−1)/2).
func CellOf(p, n int64) (x, y int64) {
	total := n * (n - 1) / 2
	if p < 0 || p >= total {
		panic(fmt.Sprintf("core: CellOf: pair index %d outside [0,%d)", p, total))
	}
	x = ColumnOf(p, n)
	y = x + 1 + (p - ColumnStart(x, n))
	return x, y
}

// ColumnOf returns the column x whose index interval contains local pair
// index p: the largest x with ColumnStart(x,n) <= p.
func ColumnOf(p, n int64) int64 {
	// Binary search over x in [0, n-1).
	lo, hi := int64(0), n-1 // search in [lo, hi)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ColumnStart(mid, n) <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// geometry is how one block's entity indexes pair up — PairRange's one
// seam between its enumerations, chosen from the matrix. One source:
// the triangle of pairs x1 < x2 of the block's n entities, enumerated
// column-wise by c(x1, x2, n) above, whose first nR columns count. nR
// is n for an ordinary block; a ⊥ row (Section III) caps it at its n⊥
// keyless entities, indexed before its keyed ones, so that its pairs are
// those of a keyless entity with any other. Two sources (Appendix I-B):
// the |Φk,R|×|Φk,S| rectangle, enumerated row-wise by x·|Φk,S| + y,
// where R's entities hold indexes 0..|Φk,R|−1 and S's the ones after
// them, so that x1 < x2 in every pair and a group's R rows sort before
// its S probes.
type geometry struct {
	n, nR int64 // entities of the block; those of its cells: R's, or ⊥'s
	rect  bool  // two sources
}

func geometryOf(x *bdm.Matrix, k int) geometry {
	return geometry{n: int64(x.Size(k)), nR: int64(x.SourceSize(k, bdm.SourceR)), rect: x.TwoSources()}
}

// pair returns the block-local index of the pair of entities x1 < x2.
func (g geometry) pair(x1, x2 int64) int64 {
	if g.rect {
		return x1*(g.n-g.nR) + x2 - g.nR
	}
	return CellIndex(x1, x2, g.n)
}

// partners returns whom entity x is paired with: as the second of a
// pair with every x1 < before, as the first with every x2 in [after, n).
func (g geometry) partners(x int64) (before, after int64) {
	switch {
	case x >= g.nR:
		return g.nR, g.n
	case g.rect:
		return 0, g.nR
	}
	return x, x + 1
}

// cell inverts pair: it returns the pair with block-local index p.
func (g geometry) cell(p int64) (x1, x2 int64) {
	if g.rect {
		nS := g.n - g.nR
		return p / nS, g.nR + p%nS
	}
	return CellOf(p, g.n)
}

// corners is a range's share [a, b) of one block's pairs, a < b, read
// as its first cell (xa, ya) and its last (xb, yb): the pairs of the
// columns xa..xb (rows in R×S), from (xa, ya) on and up to (xb, yb).
type corners struct{ xa, ya, xb, yb int64 }

func (g geometry) corners(a, b int64) corners {
	xa, ya := g.cell(a)
	xb, yb := g.cell(b - 1)
	return corners{xa, ya, xb, yb}
}

// meets is a PairRange probe within the share: entity x2 arrives after
// loaded rows, which are the share's columns below it in order (row i
// is column xa+i). It is compared with rows [first, end) — all of them,
// but row xa when (xa, x2) precedes (xa, ya) and row xb when (xb, x2)
// follows (xb, yb) — and becomes a row iff it is one of the columns.
func (c corners) meets(g geometry, x2 int64, loaded int) (first, end int, keep bool) {
	keep = c.xa <= x2 && x2 <= c.xb
	if before, _ := g.partners(x2); before == 0 {
		return 0, 0, keep
	}
	first, end = 0, loaded
	if c.xa < x2 && x2 < c.ya {
		first = 1
	}
	if x2 > c.yb {
		end--
	}
	return first, end, keep
}

// relevant returns the indexes of the entities that hold a pair of the
// share c — a range's reduce input within the block, computed without
// enumerating pairs: the columns xa..xb, column xa's partners from ya
// on, and those of the columns after it, which start at column xa+1's
// first partner and end at yb when xb is column xa+1. Listed in this
// order, each interval starts no lower than the one kept before it.
func (g geometry) relevant(c corners) span {
	if c.xa == c.xb {
		return mergeIntervals(span{{c.xa, c.xb + 1}, {c.ya, c.yb + 1}})
	}
	_, next := g.partners(c.xa + 1)
	end := g.n
	if c.xb == c.xa+1 {
		end = c.yb + 1
	}
	return mergeIntervals(span{{c.xa, c.xb + 1}, {next, end}, {c.ya, g.n}})
}

// entityBase returns the index of block k's first entity in partition
// p: a block's entities are indexed in partition order, R's before S's,
// and a ⊥ row's keyless ones before its keyed ones, which keyed picks.
func entityBase(x *bdm.Matrix, k, p int, keyed bool) int64 {
	base := x.EntityOffset(k, p)
	if keyed {
		base = 0
		for q := range p {
			base += x.KeyedIn(q)
		}
	}
	if keyed || x.PartitionSource(p) == bdm.SourceS {
		base += x.SourceSize(k, bdm.SourceR)
	}
	return int64(base)
}

// Ranges captures the PairRange partitioning of [0, P) into r ranges of
// q = ceil(P/r) pairs each (the last range holds the remainder). This is
// the rangeIndex function of Algorithm 2.
type Ranges struct {
	P int64 // total number of pairs
	R int   // number of ranges (= reduce tasks)
	Q int64 // pairs per range, ceil(P/R)
}

// NewRanges computes the range partitioning for P pairs and r reduce
// tasks.
func NewRanges(p int64, r int) Ranges {
	if r <= 0 {
		panic("core: NewRanges requires r > 0")
	}
	q := int64(1)
	if p > 0 {
		q = (p + int64(r) - 1) / int64(r)
	}
	return Ranges{P: p, R: r, Q: q}
}

// Index returns the range containing global pair index p.
func (rg Ranges) Index(p int64) int {
	if p < 0 || p >= rg.P {
		panic(fmt.Sprintf("core: Ranges.Index: pair index %d outside [0,%d)", p, rg.P))
	}
	return int(p / rg.Q)
}

// Bounds returns the half-open global pair-index interval [lo, hi)
// assigned to range k. Empty for trailing ranges when P < k·Q.
func (rg Ranges) Bounds(k int) (lo, hi int64) {
	lo = int64(k) * rg.Q
	hi = lo + rg.Q
	if lo > rg.P {
		lo = rg.P
	}
	if hi > rg.P {
		hi = rg.P
	}
	return lo, hi
}

// interval is a half-open [lo, hi) range of entity indexes.
type interval struct{ lo, hi int64 }

func (iv interval) empty() bool { return iv.hi <= iv.lo }
func (iv interval) len() int64 {
	if iv.empty() {
		return 0
	}
	return iv.hi - iv.lo
}

// span is a share's relevant entities: disjoint intervals of entity
// indexes in ascending order, the unused ones empty. Three suffice
// (geometry.relevant), so a span is a value, never a heap slice.
type span [3]interval

// mergeIntervals merges ivs into a span, dropping the empty ones: an
// interval that overlaps or abuts the last one kept widens it. Each
// must start no lower than the last one kept.
func mergeIntervals(ivs span) (s span) {
	n := 0
	for _, iv := range ivs {
		switch {
		case iv.empty():
		case n > 0 && iv.lo <= s[n-1].hi:
			s[n-1].hi = max(s[n-1].hi, iv.hi)
		default:
			s[n] = iv
			n++
		}
	}
	return s
}

// has reports whether entity x is in s.
func (s *span) has(x int64) bool {
	for _, iv := range s {
		if iv.lo <= x && x < iv.hi {
			return true
		}
	}
	return false
}

// len returns the number of entities in s.
func (s *span) len() int64 {
	var t int64
	for _, iv := range s {
		t += iv.len()
	}
	return t
}

// within returns the number of entities of s in [lo, hi).
func (s *span) within(lo, hi int64) int64 {
	var t int64
	for _, iv := range s {
		t += intersectLen(iv, lo, hi)
	}
	return t
}

// intersectLen returns |[alo,ahi) ∩ [blo,bhi)|.
func intersectLen(a interval, blo, bhi int64) int64 {
	lo, hi := a.lo, a.hi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

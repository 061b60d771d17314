package similarity

import (
	"slices"
	"sort"
)

// LevBlock is the match kernel: it decides LevenshteinSimilarity(a, b)
// >= threshold for the strings of one reduce group, held so that one
// string is decided against all of them in a single call. Rows are
// filed in buckets by rune length: each occupied length holds its rows in ascending order with their
// bit-plane histograms (bag.go) and masses side by side. A probe of
// length l runs the filter chain bucket-wise:
//
//  1. the length filter decides whole buckets: only the occupied lengths
//     inside the probe's window are visited, and within one the distance
//     bound is a constant;
//  2. a straight pass over each visited bucket's histograms applies the
//     popcount bag bound;
//  3. on what is left, the exact Myers distance taken straight from the
//     raw strings — after the full-count BagBound where a histogram is
//     saturated, so the chain never rejects less than the length filter
//     and BagBound do pair by pair.
//
// Hits come out of each bucket in row order and are merged into row
// order once the probe is done; only they are sorted, never the pairs.
//
// Every pair is decided: a pair in a bucket the probe does not visit
// fails the length filter, and all filters are lower bounds on the edit
// distance, so the hit set and the similarity floats are exactly those
// of the rune DP (LevenshteinSimilarity). Lengths past maxCachedBound
// share one overflow bucket that applies the length filter row by row,
// so no string sizes the bucket table.
//
// A row owns a pooled Prepared only when it needs one: rows containing
// non-ASCII runes (their rune slice; a pair with such a row on either
// side is verified by the rune-alphabet Myers, levenshteinPreparedDist)
// and rows of saturated pairs that survive stage 2 (the byte histogram).
//
// The zero value is an empty block; Use binds it to a threshold and
// Reset empties it, dropping every string reference, so owners can keep
// blocks in a free list. A block is not safe for concurrent use.
type LevBlock struct {
	th *Thresholder
	// Row order: the string, its rune length and its Prepared. wide[i]
	// is non-nil for non-ASCII rows, and for ASCII rows whose
	// verification needed a Prepared (see prepared).
	raws []string
	lens []int32
	wide []*Prepared
	// buckets[index[k]-1] holds the rows of length k (overflowLen for
	// every length past maxCachedBound); index[k] == 0 while none is
	// filed. occupied lists the filed lengths in ascending order, and
	// buckets[:len(occupied)] are the ones in use — the rest keep their
	// capacity for the next group. bucketCap is the capacity all of them
	// hold together.
	index     [overflowLen + 1]int16
	occupied  []int32
	buckets   [][]bucketRow
	bucketCap int
	// rows and sims are the hits Probe returns, valid until the next
	// call.
	rows []int32
	sims []float64
	// peq is the probe row's Myers pattern table, built on the probe's
	// first verification (peqBuilt) and zeroed again before Probe
	// returns.
	peq      [128]uint64
	peqBuilt bool
	// verified counts the pairs that reached the distance kernel since
	// Use: what the filter chain let through.
	verified int
}

// bucketRow is one row as its length bucket holds it. mass is the rune
// count planes holds (its total popcount): excess(a,b) - excess(b,a) =
// mass(a) - mass(b), so one one-sided difference and the two masses
// give the other for free.
type bucketRow struct {
	planes bagPlanes
	mass   int32
	row    int32
}

// overflowLen is the bucket key every length past maxCachedBound shares.
const overflowLen = maxCachedBound + 1

// maxPooledBlockRows bounds the row capacity a Reset block keeps, in row
// order and across its buckets, so one pathological group cannot pin its
// arrays for the process.
const maxPooledBlockRows = 1 << 16

// Use binds an empty block to the threshold its probes decide against.
func (b *LevBlock) Use(t *Thresholder) { b.th, b.verified = t, 0 }

// Len returns the number of rows.
func (b *LevBlock) Len() int { return len(b.raws) }

// Reset empties the block: pooled Prepareds go back to their free list
// and no string stays referenced, not even past the slices' lengths.
// Only the occupied buckets are touched.
func (b *LevBlock) Reset() {
	b.truncate(0)
	for _, k := range b.occupied {
		b.buckets[b.index[k]-1] = b.buckets[b.index[k]-1][:0]
		b.index[k] = 0
	}
	b.occupied = b.occupied[:0]
	if cap(b.raws) > maxPooledBlockRows || b.bucketCap > maxPooledBlockRows {
		*b = LevBlock{}
	}
	b.th = nil
}

// truncate drops rows n and up from the row-order arrays; the buckets
// are the caller's (a dropped probe was never filed).
func (b *LevBlock) truncate(n int) {
	for _, p := range b.wide[n:] {
		if p != nil {
			p.Release()
		}
	}
	clear(b.raws[n:])
	clear(b.wide[n:])
	b.raws, b.lens, b.wide = b.raws[:n], b.lens[:n], b.wide[:n]
}

// Probe decides s against every row and returns the rows it matches in
// ascending order with the exact similarities, exactly as the rune DP
// would decide each pair. With keep, s then becomes
// the block's next row. The returned slices are reused by the next call.
func (b *LevBlock) Probe(s string, keep bool) (rows []int32, sims []float64) {
	row := len(b.raws)
	var e bucketRow
	l := b.push(s, &e)
	b.rows, b.sims = b.rows[:0], b.sims[:0]
	b.scan(&e, l)
	if keep {
		b.file(&e, l)
	} else {
		b.truncate(row)
	}
	return b.rows, b.sims
}

// Add makes s the block's next row without deciding it.
func (b *LevBlock) Add(s string) {
	var e bucketRow
	b.file(&e, b.push(s, &e))
}

// push appends s to the row-order arrays, fills e with its histogram and
// returns its rune length: one fused pass over the string classifies it
// and builds the planes.
func (b *LevBlock) push(s string, e *bucketRow) int {
	e.row = int32(len(b.raws))
	var wide *Prepared
	n := len(s)
	if !e.planes.fillASCII(s) {
		wide = PreparePooled(s)
		e.planes, n = bagPlanes{}, len(wide.runes)
		for _, r := range wide.runes {
			e.planes.add(uint32(r))
		}
	}
	e.mass = int32(e.planes.mass())
	b.raws = append(b.raws, s)
	b.lens = append(b.lens, int32(n))
	b.wide = append(b.wide, wide)
	return n
}

// file appends the pushed row e of l runes to its length's bucket,
// opening the bucket if the length is new to the block.
func (b *LevBlock) file(e *bucketRow, l int) {
	k := int32(min(l, overflowLen))
	if b.index[k] == 0 {
		// One insertion-sort step: a group holds few distinct lengths.
		occ := append(b.occupied, k)
		i := len(occ) - 1
		for ; i > 0 && occ[i-1] > k; i-- {
			occ[i] = occ[i-1]
		}
		occ[i] = k
		b.occupied = occ
		if len(b.buckets) < len(occ) {
			b.buckets = append(b.buckets, nil)
		}
		b.index[k] = int16(len(occ))
	}
	bk := &b.buckets[b.index[k]-1]
	c := cap(*bk)
	*bk = append(*bk, *e)
	b.bucketCap += cap(*bk) - c
}

// scan runs the filter chain of the pushed probe e, l runes long, against
// every row.
func (b *LevBlock) scan(e *bucketRow, l int) {
	t := b.th
	wlo, whi := t.window(l)
	if whi < wlo {
		return
	}
	// Stage 1. The window is exact over the cached lengths, so every
	// visited bucket below the overflow one passes the length filter as a
	// whole; the overflow bucket restates it row by row. No pair in an
	// unvisited bucket is touched — 63 % of the benchmark's pairs die
	// that way. The first occupied length that can pass is a binary
	// search away.
	first, _ := slices.BinarySearch(b.occupied, min(wlo, overflowLen))
	for _, k := range b.occupied[first:] {
		if k > whi {
			break
		}
		bk := b.buckets[b.index[k]-1]
		if k == overflowLen {
			for i := range bk {
				c := &bk[i]
				n := int(b.lens[c.row])
				maxDist := t.MaxDist(max(l, n))
				excess := bagExcess(&e.planes, &c.planes)
				if max(n-l, l-n) <= maxDist && excess <= maxDist && excess-int(e.mass)+int(c.mass) <= maxDist {
					b.verify(e, c, l, n, maxDist)
				}
			}
			continue
		}
		maxDist := t.MaxDist(max(l, int(k)))
		// Stage 2: the plane bag bound, a straight pass over the bucket.
		// The second direction is excess - mass(e) + mass(c), with the
		// constants folded into limit.
		limit := maxDist + int(e.mass)
		for i := range bk {
			c := &bk[i]
			if excess := bagExcess(&e.planes, &c.planes); excess <= maxDist && excess+int(c.mass) <= limit {
				b.verify(e, c, l, int(k), maxDist)
			}
		}
	}
	// Each bucket yields its hits in row order; across buckets they
	// interleave.
	if !slices.IsSorted(b.rows) {
		sort.Sort((*hitsByRow)(b))
	}
	if b.peqBuilt {
		for p, j := b.raws[e.row], 0; j < len(p); j++ {
			b.peq[p[j]] = 0
		}
		b.peqBuilt = false
	}
}

// verify is stage 3, on a pair of probe e (l runes) and row c (k runes)
// that passed the length filter and the plane bound at maxDist: the
// exact distance. A pair with a saturated histogram first meets the
// full-count bound, which is what keeps natural-language titles out of
// Myers: their planes agree on every common letter.
func (b *LevBlock) verify(e, c *bucketRow, l, k, maxDist int) {
	longest := max(l, k)
	if longest == 0 {
		if b.th.threshold <= 1 {
			b.hit(c.row, 1)
		}
		return
	}
	probe, row := int(e.row), int(c.row)
	if (e.planes.saturated() || c.planes.saturated()) &&
		BagBound(b.prepared(probe), b.prepared(row)) > maxDist {
		return
	}
	if d := b.distance(probe, row); d <= maxDist {
		b.hit(c.row, 1-float64(d)/float64(longest))
	}
}

func (b *LevBlock) hit(row int32, sim float64) {
	b.rows = append(b.rows, row)
	b.sims = append(b.sims, sim)
}

// hitsByRow sorts a probe's hits, rows and sims together.
type hitsByRow LevBlock

func (h *hitsByRow) Len() int           { return len(h.rows) }
func (h *hitsByRow) Less(i, j int) bool { return h.rows[i] < h.rows[j] }
func (h *hitsByRow) Swap(i, j int) {
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
	h.sims[i], h.sims[j] = h.sims[j], h.sims[i]
}

// distance returns the exact edit distance between the probe row and
// row i.
func (b *LevBlock) distance(probe, i int) int {
	b.verified++
	if !b.isASCII(probe) || !b.isASCII(i) {
		return levenshteinPreparedDist(b.prepared(probe), b.prepared(i))
	}
	p, t := b.raws[probe], b.raws[i]
	switch {
	case len(p) == 0:
		return len(t)
	case len(p) <= 64:
		if !b.peqBuilt {
			for j := 0; j < len(p); j++ {
				b.peq[p[j]] |= 1 << uint(j)
			}
			b.peqBuilt = true
		}
		return myersASCIIMasks(&b.peq, len(p), t)
	case len(t) == 0:
		return len(p)
	case len(t) <= 64:
		return myersASCII(t, p)
	case len(t) < len(p):
		return myersASCIIBlocked(t, p)
	}
	return myersASCIIBlocked(p, t)
}

func (b *LevBlock) isASCII(i int) bool { return b.wide[i] == nil || b.wide[i].ascii }

// prepared returns row i's Prepared, drawing one from the free list for
// an ASCII row that has none yet.
func (b *LevBlock) prepared(i int) *Prepared {
	if b.wide[i] == nil {
		b.wide[i] = PreparePooled(b.raws[i])
	}
	return b.wide[i]
}

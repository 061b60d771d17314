package similarity

// LevBlock is the block-at-a-time form of Thresholder.Match: the strings
// of one reduce group held as structure-of-arrays — rune lengths, raw
// strings, bit-plane histograms — so that one string is decided against
// a contiguous range of rows in a single call that runs the filter
// chain column-wise:
//
//  1. a branch-free compaction pass over the contiguous length array
//     against the probe's precomputed length window;
//  2. a second compaction pass applying the popcount bag bound of the
//     bit-plane histograms (bag.go) to the survivors;
//  3. on what is left, the exact Myers distance taken straight from the
//     raw strings — after the full-count BagBound where a histogram is
//     saturated, so the chain never rejects less than Thresholder.Match.
//
// Every pair in the range is individually decided: all filters are
// lower bounds on the edit distance, so the hit set and the similarity
// floats are exactly Thresholder.Match's.
//
// A row owns a pooled Prepared only when it needs one: rows containing
// non-ASCII runes (their rune slice; a pair with such a row on either
// side is verified by the per-pair Prepared kernels) and rows of
// saturated pairs that survive stage 2 (the byte histogram).
//
// The zero value is an empty block; Use binds it to a threshold and
// Reset empties it, dropping every string reference, so owners can keep
// blocks in a free list. A block is not safe for concurrent use.
type LevBlock struct {
	th     *Thresholder
	raws   []string
	lens   []int32
	planes []bagPlanes
	// mass[i] is the rune count planes[i] holds (its total popcount).
	// excess(a,b) - excess(b,a) = mass(a) - mass(b), so one one-sided
	// difference and the two masses give the other for free.
	mass []int32
	// wide[i] is non-nil for non-ASCII rows, and for ASCII rows whose
	// verification needed a Prepared (see prepared).
	wide []*Prepared
	// surv is stage 1's output; rows and sims are the hits Probe
	// returns, valid until the next call.
	surv []int32
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

// maxPooledBlockRows bounds the row capacity a Reset block keeps, so
// one pathological group cannot pin its arrays for the process.
const maxPooledBlockRows = 1 << 16

// Use binds an empty block to the threshold its probes decide against.
func (b *LevBlock) Use(t *Thresholder) { b.th, b.verified = t, 0 }

// Len returns the number of rows.
func (b *LevBlock) Len() int { return len(b.raws) }

// Reset empties the block: pooled Prepareds go back to their free list
// and no string stays referenced, not even past the slices' lengths.
func (b *LevBlock) Reset() {
	b.truncate(0)
	if cap(b.raws) > maxPooledBlockRows {
		*b = LevBlock{}
	}
	b.th = nil
}

// truncate drops rows n and up.
func (b *LevBlock) truncate(n int) {
	for _, p := range b.wide[n:] {
		if p != nil {
			p.Release()
		}
	}
	clear(b.raws[n:])
	clear(b.wide[n:])
	b.raws, b.lens, b.planes, b.mass, b.wide = b.raws[:n], b.lens[:n], b.planes[:n], b.mass[:n], b.wide[:n]
}

// Probe decides s against rows [lo, hi) and returns the rows it matches
// in ascending order with the exact similarities, exactly as
// Thresholder.Match would decide each pair. With keep, s then becomes
// the block's next row; a block is loaded by probing with an empty
// range. The returned slices are reused by the next call.
func (b *LevBlock) Probe(s string, lo, hi int, keep bool) (rows []int32, sims []float64) {
	row := b.push(s)
	if lo < 0 || hi > row {
		panic("similarity: LevBlock.Probe: row range outside the block")
	}
	b.rows, b.sims = b.rows[:0], b.sims[:0]
	if lo < hi {
		b.scan(row, lo, hi)
	}
	if !keep {
		b.truncate(row)
	}
	return b.rows, b.sims
}

// push appends s as a row: one fused pass over the string classifies it
// and builds its histogram.
func (b *LevBlock) push(s string) int {
	row := len(b.raws)
	var bag bagPlanes
	var wide *Prepared
	n := len(s)
	if !bag.fillASCII(s) {
		wide = PreparePooled(s)
		bag, n = bagPlanes{}, len(wide.runes)
		for _, r := range wide.runes {
			bag.add(uint32(r))
		}
	}
	b.raws = append(b.raws, s)
	b.lens = append(b.lens, int32(n))
	b.planes = append(b.planes, bag)
	b.mass = append(b.mass, int32(bag.mass()))
	b.wide = append(b.wide, wide)
	return row
}

// scan runs the filter chain of row `row` against rows [lo, hi).
func (b *LevBlock) scan(row, lo, hi int) {
	t := b.th
	l := int(b.lens[row])
	wlo, whi := t.window(l)
	if whi < wlo {
		return
	}
	if cap(b.surv) < hi-lo {
		b.surv = make([]int32, cap(b.lens)) // grows in step with the rows
	}
	// Stage 1. Every candidate is written; the cursor advances only
	// past those inside the window. d <= span as an unsigned compare is
	// the sign bit of d-span-1, so the loop body has no branch to
	// mispredict (63 % of the benchmark's pairs die here, at random).
	surv := b.surv[:hi-lo]
	span := uint64(uint32(whi - wlo))
	n := 0
	for i, k := range b.lens[lo:hi] {
		surv[n] = int32(lo + i)
		n += int((uint64(uint32(k-wlo)) - span - 1) >> 63)
	}

	// Stage 2: the same again with the plane bag bound. The window's
	// upper end is open past the cache, so the longer-partner half of the
	// length filter is restated here; after this pass both filters have
	// decided every survivor.
	probe := &b.planes[row]
	probeMass := int(b.mass[row])
	m := 0
	for _, i := range surv[:n] {
		k := int(b.lens[i])
		maxDist := t.MaxDist(max(l, k))
		excess := bagExcess(probe, &b.planes[i])
		if k-l <= maxDist && excess <= maxDist && excess-probeMass+int(b.mass[i]) <= maxDist {
			surv[m] = i
			m++
		}
	}

	// Stage 3: the exact distance on what is left. A pair with a
	// saturated histogram first meets the full-count bound, which is what
	// keeps natural-language titles out of Myers: their planes agree on
	// every common letter.
	for _, i := range surv[:m] {
		longest := max(l, int(b.lens[i]))
		if longest == 0 {
			if t.threshold <= 1 {
				b.hit(i, 1)
			}
			continue
		}
		maxDist := t.MaxDist(longest)
		if (probe.saturated() || b.planes[i].saturated()) &&
			BagBound(b.prepared(row), b.prepared(int(i))) > maxDist {
			continue
		}
		if d := b.distance(row, int(i)); d <= maxDist {
			b.hit(i, 1-float64(d)/float64(longest))
		}
	}
	if b.peqBuilt {
		for p, j := b.raws[row], 0; j < len(p); j++ {
			b.peq[p[j]] = 0
		}
		b.peqBuilt = false
	}
}

func (b *LevBlock) hit(row int32, sim float64) {
	b.rows = append(b.rows, row)
	b.sims = append(b.sims, sim)
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

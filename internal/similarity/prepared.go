package similarity

import (
	"math"
	"sync"
)

// Prepared is LevBlock's per-row cache for the rows that need more than
// their raw bytes: the rune slice of a non-ASCII string, and the
// full-count rune histogram (BagBound) that a pair with a saturated bit
// plane is checked against. LevBlock draws each from the free list
// (PreparePooled) and hands it back when it is Reset.
//
// An ASCII string's rune slice is materialized lazily, by mutating the
// receiver, the first time a comparison with a non-ASCII row needs it
// (runeSeq), so a Prepared must not be shared across goroutines that
// compare it.
type Prepared struct {
	// Raw is the original string.
	Raw string
	// runes is the materialized rune slice. For ASCII strings the bytes
	// of Raw are the runes, so this stays nil unless a mixed
	// ASCII/non-ASCII comparison forces materialization (runeSeq).
	runes []rune
	// hist counts runes per bucket, saturating at 127. Saturation keeps
	// BagBound sound for arbitrarily long strings: clamping is monotone
	// and 1-Lipschitz, so it can only shrink bucket differences.
	hist  [histBuckets]uint8
	ascii bool
}

// histBuckets is the size of the rune histogram. 32 buckets separate
// the ASCII letters almost perfectly (r & 31); digits and wider
// alphabets collide, which weakens the BagBound filter but never makes
// it unsound (merging rune classes can only cancel differences).
const histBuckets = 32

// histCap is the saturation ceiling of one histogram bucket.
const histCap = 127

// preparedPool recycles Prepared values between PreparePooled and
// Release, so a warm LevBlock allocates none.
var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// PreparePooled derives the cached forms of s on a value from the free
// list: the ASCII classification, the rune histogram and, for a
// non-ASCII string, the rune slice. The value must be handed back via
// Release once its reduce group is finished and must not be used
// afterwards.
func PreparePooled(s string) *Prepared {
	p := preparedPool.Get().(*Prepared)
	p.fill(s)
	return p
}

// Release resets p (keeping slice capacities) and returns it to the
// pool. Only values obtained from PreparePooled may be released.
func (p *Prepared) Release() {
	*p = Prepared{runes: p.runes[:0]}
	preparedPool.Put(p)
}

// fill populates a zeroed (or Released) Prepared in place, reusing any
// slice capacity left from a previous use.
func (p *Prepared) fill(s string) {
	p.Raw = s
	p.ascii = true
	p.hist = [histBuckets]uint8{}
	runes := p.runes[:0]
	p.runes = runes // empty = not materialized; keeps recycled capacity
	// Fused pass: ASCII classification and histogram in one scan.
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			p.ascii = false
			break
		}
		if b := c & (histBuckets - 1); p.hist[b] < histCap {
			p.hist[b]++
		}
	}
	if !p.ascii {
		p.hist = [histBuckets]uint8{} // rebuild over runes, not bytes
		for _, r := range s {
			runes = append(runes, r)
			if b := uint32(r) & (histBuckets - 1); p.hist[b] < histCap {
				p.hist[b]++
			}
		}
		p.runes = runes
	}
}

// runeSeq returns the rune slice, materializing and caching it for
// an ASCII string that ends up in a comparison with a non-ASCII one.
func (p *Prepared) runeSeq() []rune {
	if len(p.runes) == 0 && len(p.Raw) > 0 {
		runes := p.runes[:0]
		for _, r := range p.Raw {
			runes = append(runes, r)
		}
		p.runes = runes
	}
	return p.runes
}

// BagBound returns a lower bound on the Levenshtein distance of the two
// strings: the bag distance of their bucketed rune histograms — the
// larger of the two one-sided multiset differences. Every insertion,
// deletion, or substitution changes each one-sided difference by at
// most one, and collapsing runes into histogram buckets can only cancel
// differences, so BagBound(a, b) <= Levenshtein(a.Raw, b.Raw) always
// holds. That makes it a sound pre-filter: BagBound > maxDist implies
// the edit distance exceeds maxDist. The 32 byte-wide buckets are
// processed as four uint64 SWAR words — per-byte absolute differences
// and byte sums without a single branch or allocation.
func BagBound(a, b *Prepared) int {
	// With onlyA/onlyB the one-sided difference sums: onlyA + onlyB =
	// Σ|d| and onlyA − onlyB = Σd, so max(onlyA, onlyB) =
	// (Σ|d| + |Σd|) / 2.
	//
	// Per word: t = (x|H) − y computes 0x80 + x−y in every byte lane
	// without inter-byte borrow (bucket values are ≤ 127), so each high
	// bit reports x ≥ y and t ^ H is x−y mod 256 per byte. Lanes with
	// x < y are negated per-byte ((d ^ 0xFF) + 1, carry-free because
	// the true difference is ≤ 127). Byte sums fold pairwise into four
	// 16-bit lanes per word — a plain multiply-shift would overflow a
	// byte — and collapse to ints only once at the end.
	const (
		ones01 = 0x0101010101010101
		high   = 0x8080808080808080
		pairLo = 0x00FF00FF00FF00FF
	)
	var absAcc, aAcc, bAcc uint64 // 4 × 16-bit lanes each
	for i := 0; i <= histBuckets-8; i += 8 {
		x := leU64(a.hist[i : i+8 : i+8])
		y := leU64(b.hist[i : i+8 : i+8])
		t := (x | high) - y
		lt := (t&high)>>7 ^ ones01 // per-byte 1 where x < y
		d := t ^ high
		abs := (d ^ lt*0xFF) + lt
		absAcc += (abs & pairLo) + (abs >> 8 & pairLo)
		aAcc += (x & pairLo) + (x >> 8 & pairLo)
		bAcc += (y & pairLo) + (y >> 8 & pairLo)
	}
	sumAbs := fold16(absAcc)
	sumD := fold16(aAcc) - fold16(bAcc)
	if sumD < 0 {
		sumD = -sumD
	}
	return (sumAbs + sumD) / 2
}

// leU64 loads 8 histogram bytes as a little-endian uint64 word.
func leU64(b []uint8) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// fold16 sums the four 16-bit lanes of a SWAR accumulator.
func fold16(v uint64) int {
	return int(v&0xFFFF + v>>16&0xFFFF + v>>32&0xFFFF + v>>48)
}

// myersASCII returns the exact Levenshtein distance between an ASCII
// pattern p (1 <= len(p) <= 64) and an ASCII text t, using Myers'
// bit-parallel algorithm (in Hyyrö's formulation): the DP column is
// encoded in two 64-bit words and each text byte costs a handful of
// word operations, an order of magnitude faster than the DP on
// title-length strings. The per-call pattern mask table lives on the
// stack — no allocation.
func myersASCII(p, t string) int {
	var peq [128]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]] |= 1 << uint(i)
	}
	return myersASCIIMasks(&peq, len(p), t)
}

// myersASCIIMasks is myersASCII on a prebuilt pattern mask table: peq[c]
// has bit i set iff pattern byte i is c, m is the pattern length. The
// recurrence is symmetric in which string plays the pattern, so a block
// probe builds the table once per row and reuses it for every text.
func myersASCIIMasks(peq *[128]uint64, m int, t string) int {
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	last := uint64(1) << uint(m-1)
	for i := 0; i < len(t); i++ {
		eq := peq[t[i]&127]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// levenshteinPreparedDist returns the exact distance of a pair in which
// at least one side is non-ASCII: the rune-alphabet blocked Myers,
// materializing the runes of an ASCII partner. LevBlock.distance runs
// the ASCII kernels on pairs of ASCII rows itself.
func levenshteinPreparedDist(a, b *Prepared) int {
	ra, rb := a.runeSeq(), b.runeSeq()
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) == 0 {
		return len(rb)
	}
	return myersRunes(ra, rb)
}

// Thresholder is one similarity threshold as LevBlock's filters read
// it: the largest distance that reaches the threshold for each rune
// length, and the window of partner lengths that can, computed once so
// that no probe does float arithmetic. Matchers that decide millions of
// pairs against one threshold (the paper's setup) build one Thresholder
// and share it; it is immutable and safe for concurrent use.
type Thresholder struct {
	threshold float64
	bounds    [maxCachedBound + 1]int16
	// windows[l] is the closed interval of partner lengths that pass
	// the length filter against a string of l runes (see window).
	windows [maxCachedBound + 1][2]int32
}

// maxCachedBound is the largest string length whose distance bound is
// precomputed; longer strings fall back to the on-the-fly computation.
const maxCachedBound = 512

// windowScan is the largest partner length the precomputed windows
// resolve exactly; a window still open there is left unbounded above.
const windowScan = 4 * maxCachedBound

// NewThresholder precomputes the distance bounds for the threshold.
func NewThresholder(threshold float64) *Thresholder {
	t := &Thresholder{threshold: threshold}
	for l := 0; l <= maxCachedBound; l++ {
		t.bounds[l] = int16(levenshteinMaxDist(l, threshold))
	}
	// A partner of k > l runes passes iff k-MaxDist(k) <= l. reach[v] is
	// the largest scanned k with k-MaxDist(k) <= v.
	var reach [maxCachedBound + 1]int32
	for k := 0; k <= windowScan; k++ {
		if v := k - t.MaxDist(k); v <= maxCachedBound {
			reach[v] = int32(k)
		}
	}
	for l := 0; l <= maxCachedBound; l++ {
		if l > 0 && reach[l] < reach[l-1] {
			reach[l] = reach[l-1]
		}
		hi := reach[l]
		if hi == windowScan {
			hi = math.MaxInt32
		}
		t.windows[l] = [2]int32{int32(l - int(t.bounds[l])), hi}
	}
	return t
}

// window returns the closed interval [lo, hi] of rune lengths k for
// which a pair of lengths (l, k) can reach the threshold, i.e. passes
// the length filter |l-k| <= MaxDist(max(l, k)). It is an interval
// because both MaxDist(k) and k-MaxDist(k) are non-decreasing in k: a
// shorter partner needs k >= l-MaxDist(l), a longer one
// k-MaxDist(k) <= l. The interval is exact where it is cached; past the
// cache hi is left open, which is why a block probe still applies the
// exact filter to the survivors.
func (t *Thresholder) window(l int) (lo, hi int32) {
	if l <= maxCachedBound {
		w := &t.windows[l]
		return w[0], w[1]
	}
	return int32(l - t.maxDistUncached(l)), math.MaxInt32
}

// MaxDist returns the largest edit distance at which two strings of
// maximum rune length `longest` still reach the threshold (−1 when none
// does), in the float arithmetic of LevenshteinSimilarity.
func (t *Thresholder) MaxDist(longest int) int {
	if uint(longest) <= maxCachedBound {
		return int(t.bounds[longest])
	}
	return t.maxDistUncached(longest)
}

// maxDistUncached is kept out of line so that MaxDist's table lookup
// inlines into the kernels' loops.
//
//go:noinline
func (t *Thresholder) maxDistUncached(longest int) int {
	return levenshteinMaxDist(longest, t.threshold)
}

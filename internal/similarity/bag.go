package similarity

import (
	"math/bits"
	"unicode/utf8"
)

// bagPlanes is LevBlock's rune histogram, in thermometer code: runes
// fall into 64 buckets (r & 63, which separates the ASCII letters and
// the space), and plane k has bit b set iff more than k runes fell into
// bucket b. Counts saturate at len(bagPlanes). The layout turns the bag
// distance into a few AND-NOTs and popcounts (bagExcess) and builds in
// one pass over the string with four register updates per rune.
//
// Saturation is what the compactness costs: natural-language titles hold
// more than four of 'e', 't' or the space, and there the planes
// under-count. saturated reports when that may have happened, and
// LevBlock then asks Prepared's full-count byte histogram (BagBound) as
// well before it pays for an edit distance.
type bagPlanes [4]uint64

// add counts one rune.
func (p *bagPlanes) add(r uint32) {
	bit := uint64(1) << (r & 63)
	p[3] |= p[2] & bit
	p[2] |= p[1] & bit
	p[1] |= p[0] & bit
	p[0] |= bit
}

// mass returns the number of runes the histogram holds.
func (p *bagPlanes) mass() int {
	return bits.OnesCount64(p[0]) + bits.OnesCount64(p[1]) + bits.OnesCount64(p[2]) + bits.OnesCount64(p[3])
}

// saturated reports whether some bucket reached the cap, i.e. whether
// the planes may hold fewer runes than the string does. Where neither
// histogram of a pair is saturated, the larger bagExcess is the exact
// 64-bucket bag distance, which the coarser 32-bucket BagBound cannot exceed.
func (p *bagPlanes) saturated() bool { return p[3] != 0 }

// fillASCII overwrites p with the histogram of s and reports whether s
// is pure ASCII. It stops at the first non-ASCII byte, leaving p
// unspecified: the caller rebuilds over runes.
func (p *bagPlanes) fillASCII(s string) bool {
	var p0, p1, p2, p3 uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return false
		}
		bit := uint64(1) << (c & 63)
		p3 |= p2 & bit
		p2 |= p1 & bit
		p1 |= p0 & bit
		p0 |= bit
	}
	*p = bagPlanes{p0, p1, p2, p3}
	return true
}

// bagExcess returns the one-sided multiset difference of two histograms:
// how many runes (bucketed, saturated) a holds beyond b. In thermometer
// code a bucket with clamped counts ca > cb has exactly planes cb..ca-1
// set in a and clear in b, so the difference is the popcount of a &^ b
// summed over the planes.
//
// Either one-sided difference is a lower bound on the Levenshtein
// distance of the two strings, so bagExcess > maxDist in either
// direction soundly rejects a pair: every insertion, deletion, or
// substitution changes each one-sided difference of the exact rune
// multisets by at most one; merging runes into buckets can only cancel
// differences; and clamping a count is monotone and 1-Lipschitz, so it
// can only shrink a bucket's difference.
func bagExcess(a, b *bagPlanes) int {
	return bits.OnesCount64(a[0]&^b[0]) + bits.OnesCount64(a[1]&^b[1]) +
		bits.OnesCount64(a[2]&^b[2]) + bits.OnesCount64(a[3]&^b[3])
}

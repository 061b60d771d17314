// Package similarity implements the paper's match measure: normalized
// Levenshtein edit distance against a similarity threshold (0.8 in the
// paper). All functions operate on runes, not bytes.
//
// Levenshtein and LevenshteinSimilarity are the plain rune-DP references
// on raw strings. The one kernel the reducers run, LevBlock (block.go),
// decides the same predicate a reduce group at a time, behind length and
// bag-distance pre-filters and the bit-parallel Myers distance; Prepared
// (prepared.go) is its per-row cache.
package similarity

import "math"

// Levenshtein returns the edit distance between a and b: the minimum
// number of single-rune insertions, deletions, and substitutions that
// transform a into b. It runs in O(len(a)*len(b)) time and O(min) space.
func Levenshtein(a, b string) int {
	return levenshteinRunes([]rune(a), []rune(b))
}

func levenshteinRunes(ra, rb []rune) int {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	// ra is the shorter string; one row of the DP matrix suffices.
	n := len(ra)
	if n == 0 {
		return len(rb)
	}
	row := make([]int, n+1)
	for i := range row {
		row[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		prev := row[0] // row[j-1][0]
		row[0] = j
		for i := 1; i <= n; i++ {
			cur := row[i]
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			row[i] = min(row[i]+1, row[i-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[n]
}

// LevenshteinSimilarity normalizes the edit distance into [0,1]:
// 1 - dist/max(len(a), len(b)). Two equal strings score 1; two strings
// with nothing in common score near 0. Both empty scores 1.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	longest := la
	if lb > longest {
		longest = lb
	}
	if longest == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(longest)
}

// levenshteinMaxDist returns the largest distance d with
// 1 - d/longest >= threshold (−1 when even d = 0 misses the threshold),
// evaluated with the exact float arithmetic of LevenshteinSimilarity.
// Computing the bound as int(float64(longest)*(1-threshold)) is wrong:
// 1-0.8 rounds to 0.19999…, so longest=5, threshold=0.8 yields 0 instead
// of 1 and pairs sitting exactly on the threshold are rejected. The
// float estimate is therefore only a seed, corrected by at most a couple
// of steps against the real predicate. No similarity reaches a NaN
// threshold.
func levenshteinMaxDist(longest int, threshold float64) int {
	if math.IsNaN(threshold) {
		return -1
	}
	if threshold <= 0 {
		return longest // every distance qualifies (dist <= longest always)
	}
	d := int(float64(longest) * (1 - threshold))
	if d < 0 {
		d = 0
	}
	if d > longest {
		d = longest
	}
	for d < longest && 1-float64(d+1)/float64(longest) >= threshold {
		d++
	}
	for d >= 0 && 1-float64(d)/float64(longest) < threshold {
		d--
	}
	return d
}

// Package blocking provides blocking key functions. A blocking key
// partitions the input into blocks; entity resolution then compares only
// entities within the same block, reducing the O(n^2) search space.
//
// The paper's default blocking for both evaluation datasets is the first
// three letters of the title attribute; the skew-robustness experiment
// instead controls the block distribution directly via a synthetic key.
package blocking

import (
	"strings"
	"unicode"
)

// KeyFunc derives the blocking key from an entity attribute value. The
// empty string is a valid key. An entity without a blocking key, which
// the paper matches against every other (Section III), gets the empty
// key, and er.RunWithMissingKeysPipeline treats it so.
type KeyFunc func(attrValue string) string

// NormalizedPrefix lowercases the value, strips leading non-letter runes,
// and takes the first n letters. This is the paper's "first three letters
// of the title" key made robust to case and stray punctuation.
func NormalizedPrefix(n int) KeyFunc {
	if n <= 0 {
		panic("blocking: NormalizedPrefix requires n > 0")
	}
	return func(v string) string {
		// Fast path: the first n bytes are already lowercase ASCII
		// letters or digits (the common case for normalized titles) —
		// the key is a substring, no allocation.
		if len(v) >= n {
			ok := true
			for i := 0; i < n; i++ {
				c := v[i]
				if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
					ok = false
					break
				}
			}
			if ok {
				return v[:n]
			}
		}
		var b strings.Builder
		letters := 0
		for _, r := range v {
			r = unicode.ToLower(r)
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				if letters == 0 {
					continue // strip leading separators
				}
				break
			}
			b.WriteRune(r)
			letters++
			if letters == n {
				break
			}
		}
		return b.String()
	}
}

// Identity uses the attribute value itself as the blocking key. Useful
// with synthetic datasets whose block membership is pre-assigned to an
// attribute (the skew experiment of Figure 9).
func Identity() KeyFunc {
	return func(v string) string { return v }
}

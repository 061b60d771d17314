package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestLevenshteinKnown(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"saturday", "sunday", 3},
		{"same", "same", 0},
		{"abc", "abd", 1},
		{"über", "uber", 1}, // rune-wise, not byte-wise
		{"日本語", "日本", 1},    // multi-byte runes
		{"ab", "ba", 2},     // transposition costs 2 (no Damerau)
		{"abcdef", "", 6},
	}
	for _, tc := range tests {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		// Symmetry.
		if got := Levenshtein(tc.b, tc.a); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

// TestLevenshteinMetricProperties: identity, symmetry, triangle
// inequality on random short strings.
func TestLevenshteinMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStr := func() string {
		n := rng.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('a' + rng.Intn(4))) // small alphabet → collisions
		}
		return b.String()
	}
	for trial := 0; trial < 500; trial++ {
		a, b, c := randStr(), randStr(), randStr()
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba {
			t.Fatalf("not symmetric: d(%q,%q)=%d, d(%q,%q)=%d", a, b, dab, b, a, dba)
		}
		if Levenshtein(a, a) != 0 {
			t.Fatalf("d(%q,%q) != 0", a, a)
		}
		if dac, dbc := Levenshtein(a, c), Levenshtein(b, c); dac > dab+dbc {
			t.Fatalf("triangle violated: d(%q,%q)=%d > %d+%d", a, c, dac, dab, dbc)
		}
	}
}

func TestLevenshteinSimilarity(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"abcd", "abcd", 1},
		{"abcd", "abce", 0.75},
		{"abcd", "wxyz", 0},
	}
	for _, tc := range tests {
		if got := LevenshteinSimilarity(tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("LevenshteinSimilarity(%q,%q) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

package similarity

import (
	"math/rand"
	"testing"
)

// edgeStrings collects the awkward inputs every measure must survive:
// empty, single-rune, multi-byte unicode (CJK), combining marks (the
// same visual glyph as a precomposed rune but a different rune
// sequence), and whitespace-only.
var edgeStrings = []string{
	"",
	" ",
	"a",
	"ä",
	"é",  // precomposed U+00E9
	"é", // e + combining acute: two runes, same glyph
	"日本語テキスト処理",
	"日本語",
	"中文分词测试",
	"한국어 텍스트",
	"à́", // stacked combining marks
	"  spaced   out  tokens  ",
	"ASCII and 中文 mixed",
}

// TestEdgeCaseKnownValues pins exact results on the tricky inputs.
func TestEdgeCaseKnownValues(t *testing.T) {
	if got := Levenshtein("", ""); got != 0 {
		t.Errorf("Levenshtein(\"\",\"\") = %d, want 0", got)
	}
	if got := Levenshtein("", "日本語"); got != 3 {
		t.Errorf("Levenshtein(\"\",\"日本語\") = %d, want 3 (runes, not bytes)", got)
	}
	if got := Levenshtein("é", "é"); got != 2 {
		t.Errorf("Levenshtein(é, e+combining) = %d, want 2 (no normalization)", got)
	}
	if got := LevenshteinSimilarity("", ""); got != 1 {
		t.Errorf("LevenshteinSimilarity(\"\",\"\") = %v, want 1", got)
	}
	if got := LevenshteinSimilarity("a", ""); got != 0 {
		t.Errorf("LevenshteinSimilarity(\"a\",\"\") = %v, want 0", got)
	}
	if _, ok := probePair(NewThresholder(1), "", ""); !ok {
		t.Error("a block at 1 rejects (\"\",\"\"), want a match (similarity is exactly 1)")
	}
	if _, ok := probePair(NewThresholder(1.5), "", ""); ok {
		t.Error("a block at 1.5 matches (\"\",\"\"), but similarity 1 < 1.5")
	}
}

// blockSimilarity is the block kernel as a measure: at matchAll every
// pair matches, with its exact similarity.
func blockSimilarity(a, b string) float64 {
	sim, _ := probePair(matchAll, a, b)
	return sim
}

// TestEdgeCaseMeasures runs the measure (plain and block) over the
// full cross product of edge strings and checks range, symmetry and
// identity; the real assertion is that neither form panics or steps out
// of [0,1].
func TestEdgeCaseMeasures(t *testing.T) {
	measures := map[string]func(a, b string) float64{
		"LevenshteinSimilarity": LevenshteinSimilarity,
		"LevBlock":              blockSimilarity,
	}
	for name, sim := range measures {
		for _, a := range edgeStrings {
			for _, b := range edgeStrings {
				got := sim(a, b)
				if got < 0 || got > 1 {
					t.Fatalf("%s(%q,%q) = %v out of [0,1]", name, a, b, got)
				}
				if rev := sim(b, a); rev != got {
					t.Fatalf("%s not symmetric on (%q,%q): %v vs %v", name, a, b, got, rev)
				}
				if a == b && got != 1 {
					t.Fatalf("%s(%q,%q) = %v, want 1 (identity)", name, a, a, got)
				}
			}
		}
	}
}

// TestSimilarityPropertyRandom is the randomized property test: the
// measure stays in [0,1] and is symmetric on random unicode-bearing
// strings, and the block kernel gives the reference's float.
func TestSimilarityPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []rune("ab 日本é́語x")
	randStr := func() string {
		n := rng.Intn(10)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for trial := 0; trial < 400; trial++ {
		a, b := randStr(), randStr()
		got := LevenshteinSimilarity(a, b)
		if got < 0 || got > 1 {
			t.Fatalf("LevenshteinSimilarity(%q,%q) = %v out of [0,1]", a, b, got)
		}
		if rev := LevenshteinSimilarity(b, a); rev != got {
			t.Fatalf("LevenshteinSimilarity not symmetric on (%q,%q): %v vs %v", a, b, got, rev)
		}
		if blk := blockSimilarity(a, b); blk != got {
			t.Fatalf("LevBlock(%q,%q) = %v, reference %v", a, b, blk, got)
		}
	}
}

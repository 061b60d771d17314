package similarity

import (
	"math/rand"
	"strings"
	"testing"
)

// bagBoundRef is the scalar reference the SWAR BagBound must reproduce
// exactly: the branch-light per-bucket loop it replaced.
func bagBoundRef(a, b *Prepared) int {
	var sumAbs, sumD int32
	for i := range a.hist {
		d := int32(a.hist[i]) - int32(b.hist[i])
		sumD += d
		m := d >> 31
		sumAbs += (d ^ m) - m
	}
	if sumD < 0 {
		sumD = -sumD
	}
	return int((sumAbs + sumD) / 2)
}

// mutate applies up to k random single-rune edits to s, staying within
// the given alphabet — producing near-misses whose true distance sits
// close to the thresholds the kernels are tuned for.
func mutate(rng *rand.Rand, s []rune, k int, alphabet []rune) []rune {
	out := append([]rune(nil), s...)
	for e := rng.Intn(k + 1); e > 0; e-- {
		r := alphabet[rng.Intn(len(alphabet))]
		switch op := rng.Intn(3); {
		case op == 0 && len(out) > 0: // substitute
			out[rng.Intn(len(out))] = r
		case op == 1 && len(out) > 0: // delete
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		default: // insert
			i := rng.Intn(len(out) + 1)
			out = append(out[:i], append([]rune{r}, out[i:]...)...)
		}
	}
	return out
}

func randRunes(rng *rand.Rand, n int, alphabet []rune) []rune {
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

var (
	asciiAlphabet   = []rune("abcde ")
	unicodeAlphabet = []rune("aéüß日本語́̈") // incl. combining acute/diaeresis
)

// TestBlockedMyersWordBoundaries pins the exact word-boundary lengths
// where the multi-word kernel splits, grows, and partially fills its
// last word: 63/64 (single word), 65 (two words, last nearly empty),
// 127/128/129 (two-word boundary), 191/192/193 (three words). Each
// length is tested in ASCII and in a mixed Unicode alphabet with
// combining marks, against the DP reference, over identical strings,
// heavy edits, and disjoint strings.
func TestBlockedMyersWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lengths := []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193}
	for _, alphabet := range [][]rune{asciiAlphabet, unicodeAlphabet} {
		for _, la := range lengths {
			for _, lb := range lengths {
				a := randRunes(rng, la, alphabet)
				for _, b := range [][]rune{
					append([]rune(nil), a[:min(la, lb)]...), // prefix/identical
					mutate(rng, a, 5, alphabet),             // near miss
					randRunes(rng, lb, alphabet),            // unrelated
				} {
					want := levenshteinRunes(a, b)
					pa, pb := prepare(string(a)), prepare(string(b))
					if got := levenshteinPreparedDist(pa, pb); got != want {
						t.Fatalf("levenshteinPreparedDist(len %d, len %d, ascii=%v) = %d, want %d",
							la, len(b), pa.ascii, got, want)
					}
					// The block kernel at matchAll, which reaches the
					// distance on every pair, and at the thresholds whose
					// distance bound sits just below, on and just above it.
					checkMatch(t, matchAll, string(a), string(b))
					longest := max(la, len(b))
					for _, maxDist := range []int{want - 1, want, want + 1} {
						if maxDist < 0 || maxDist > longest {
							continue
						}
						th := NewThresholder(1 - float64(maxDist)/float64(longest))
						if _, ok := probePair(th, string(a), string(b)); ok != (want <= maxDist) {
							t.Fatalf("block at max %d of %d, len %d probed with len %d: match %v, distance %d",
								maxDist, longest, la, len(b), ok, want)
						}
					}
				}
			}
		}
	}
}

// TestBlockedMyersProperty is the randomized differential: both blocked
// kernels — the rune-alphabet one directly, the ASCII multi-word one
// through a block probe at matchAll — must agree with the DP reference
// on arbitrary lengths straddling several words.
func TestBlockedMyersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 800; trial++ {
		alphabet := asciiAlphabet
		if trial%2 == 1 {
			alphabet = unicodeAlphabet
		}
		a := randRunes(rng, 1+rng.Intn(200), alphabet)
		var b []rune
		if rng.Intn(2) == 0 {
			b = mutate(rng, a, 8, alphabet)
		} else {
			b = randRunes(rng, rng.Intn(200), alphabet)
		}
		want := levenshteinRunes(a, b)
		pa, pb := prepare(string(a)), prepare(string(b))
		if got := levenshteinPreparedDist(pa, pb); got != want {
			t.Fatalf("trial %d: levenshteinPreparedDist(%q, %q) = %d, want %d", trial, string(a), string(b), got, want)
		}
		if sim, _ := probePair(matchAll, string(a), string(b)); sim != LevenshteinSimilarity(string(a), string(b)) {
			t.Fatalf("trial %d: similarity mismatch", trial)
		}
	}
}

// TestBlockedMyersCombiningMarks pins the rune-kernel semantics for
// combining marks: the kernels count runes, not grapheme clusters, so
// "e" + U+0301 is two runes and distance("é", "é") is 2 (one
// substitution plus one insertion at rune granularity).
func TestBlockedMyersCombiningMarks(t *testing.T) {
	precomposed := "é" // single rune U+00E9
	combining := "é"  // 'e' + combining acute: two runes
	pa, pb := prepare(precomposed), prepare(combining)
	want := levenshteinRunes([]rune(precomposed), []rune(combining))
	if got := levenshteinPreparedDist(pa, pb); got != want || got != 2 {
		t.Fatalf("distance(é, e+U+0301) = %d, want %d (rune granularity)", got, want)
	}
	// A long combining-mark string crossing the word boundary.
	long := strings.Repeat("éä", 40) // 160 runes, 3 words
	other := strings.Repeat("éä", 39) + "xx́̈"
	want = levenshteinRunes([]rune(long), []rune(other))
	if got := levenshteinPreparedDist(prepare(long), prepare(other)); got != want {
		t.Fatalf("long combining-mark distance = %d, want %d", got, want)
	}
}

// TestBagBoundSWAR checks the uint64-blocked BagBound against the
// scalar reference, including saturated buckets (strings longer than
// 127 repetitions of one bucket class).
func TestBagBoundSWAR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct{ a, b string }{
		{"", ""},
		{"", "abc"},
		{strings.Repeat("a", 400), strings.Repeat("a", 3)}, // saturation
		{strings.Repeat("ab", 200), strings.Repeat("ba", 199) + "xy"},
	}
	for _, c := range cases {
		pa, pb := prepare(c.a), prepare(c.b)
		if got, want := BagBound(pa, pb), bagBoundRef(pa, pb); got != want {
			t.Fatalf("BagBound(%.8q, %.8q) = %d, want %d", c.a, c.b, got, want)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		alphabet := asciiAlphabet
		if trial%3 == 0 {
			alphabet = unicodeAlphabet
		}
		a := string(randRunes(rng, rng.Intn(300), alphabet))
		b := string(randRunes(rng, rng.Intn(300), alphabet))
		pa, pb := prepare(a), prepare(b)
		got, want := BagBound(pa, pb), bagBoundRef(pa, pb)
		if got != want {
			t.Fatalf("trial %d: BagBound = %d, want %d", trial, got, want)
		}
		// Soundness: still a lower bound on the true distance.
		if d := levenshteinPreparedDist(pa, pb); got > d {
			t.Fatalf("trial %d: BagBound %d exceeds distance %d", trial, got, d)
		}
	}
}

// TestBlockedMyersNoAllocs asserts the prepared kernels' allocation
// contract: once both sides are prepared (an ASCII side's runes
// materialized by the first call), the rune-alphabet kernel — in one
// word, in several, and on a title pair — and the SWAR pre-filter
// allocate nothing. TestLevBlockSteadyStateAllocs pins the block and its
// ASCII kernels.
func TestBlockedMyersNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; steady-state 0 allocs does not hold")
	}
	shortA, shortB := prepare(strings.Repeat("ab", 20)), prepare(strings.Repeat("ba", 20))
	longA, longB := prepare(strings.Repeat("abc", 60)), prepare(strings.Repeat("acb", 60))
	uniA, uniB := prepare(strings.Repeat("éá", 50)), prepare(strings.Repeat("aé́", 49))
	titleA := prepare("canon eos 5d mark iii digital slr camera body")
	titleB := prepare("canon eos 5d mark iv digital slr camera body only")
	pairs := [][2]*Prepared{{shortA, shortB}, {longA, longB}, {uniA, uniB}, {titleA, titleB}}
	for name, fn := range map[string]func(a, b *Prepared){
		"levenshteinPreparedDist": func(a, b *Prepared) { levenshteinPreparedDist(a, b) },
		"BagBound":                func(a, b *Prepared) { BagBound(a, b) },
	} {
		for i, pair := range pairs {
			a, b := pair[0], pair[1]
			fn(a, b) // materialize the runes
			if allocs := testing.AllocsPerRun(200, func() { fn(a, b) }); allocs != 0 {
				t.Errorf("%s pair %d: %v allocs/op, want 0", name, i, allocs)
			}
		}
	}
}

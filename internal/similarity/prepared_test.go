package similarity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randTitle builds a random title-like string over a small alphabet
// (with spaces) to force collisions and near-misses.
func randTitle(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteByte(byte('a' + rng.Intn(5)))
		}
	}
	return b.String()
}

// prepare derives p's cached forms on a fresh value, outside the free
// list, for tests of the kernels that read them.
func prepare(s string) *Prepared {
	p := new(Prepared)
	p.fill(s)
	return p
}

// probePair decides one pair through a one-row LevBlock: row is loaded,
// then probe is probed and dropped.
func probePair(th *Thresholder, row, probe string) (float64, bool) {
	var b LevBlock
	b.Use(th)
	defer b.Reset()
	b.Add(row)
	if rows, sims := b.Probe(probe, false); len(rows) == 1 {
		return sims[0], true
	}
	return 0, false
}

// checkMatch holds a one-row LevBlock probe, in both orders, to the
// rune-DP reference on one pair: it accepts exactly when refMatch does,
// and then with that very float.
func checkMatch(t *testing.T, th *Thresholder, a, b string) {
	t.Helper()
	want, wantOK := refMatch(a, b, th.threshold)
	for _, pair := range [][2]string{{a, b}, {b, a}} {
		if sim, ok := probePair(th, pair[0], pair[1]); ok != wantOK || ok && sim != want {
			t.Fatalf("Thresholder(%v): row %.40q probed with %.40q = (%v, %v), rune DP says (%v, %v)",
				th.threshold, pair[0], pair[1], sim, ok, want, wantOK)
		}
	}
}

// matchAll accepts every pair with its exact similarity, so a probe at
// it reaches the distance kernel on every pair: its similarity holds the
// block's distance dispatch to the DP.
var matchAll = NewThresholder(0)

// checkMatchStream draws trials random pairs of up to maxLn runes from
// seed and holds each to the DP reference: the rune kernel's distance,
// and a block probe at matchAll, at a drawn threshold and at the pair's
// own similarity, which must accept it.
func checkMatchStream(t *testing.T, seed int64, trials, maxLn int, threshold func(*rand.Rand) float64) {
	t.Helper()
	thresholders := map[float64]*Thresholder{}
	thresholder := func(th float64) *Thresholder {
		if thresholders[th] == nil {
			thresholders[th] = NewThresholder(th)
		}
		return thresholders[th]
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		a, b := randTitle(rng, maxLn), randTitle(rng, maxLn)
		if got, want := levenshteinPreparedDist(prepare(a), prepare(b)), Levenshtein(a, b); got != want {
			t.Fatalf("levenshteinPreparedDist(%q,%q) = %d, want %d", a, b, got, want)
		}
		checkMatch(t, matchAll, a, b)
		checkMatch(t, thresholder(threshold(rng)), a, b)
		// Exact-boundary threshold: the pair's own similarity.
		checkMatch(t, thresholder(LevenshteinSimilarity(a, b)), a, b)
	}
}

// TestLevenshteinAtLeastMatchesSimilarity is the threshold-boundary
// differential of the block kernel: a probe must agree exactly with the
// DP reference for every (pair, threshold), including
// pairs sitting exactly on the threshold — the case the former
// int(float64(longest)*(1-threshold)) bound got wrong (longest=5,
// t=0.8 yielded maxDist 0 instead of 1).
func TestLevenshteinAtLeastMatchesSimilarity(t *testing.T) {
	// The historical failure first: distance 1 at length 5 is exactly
	// similarity 0.8.
	if _, ok := probePair(NewThresholder(0.8), "abcde", "abcdX"); !ok {
		t.Fatal("a block at 0.8 rejects a pair exactly on the threshold")
	}
	fixed := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.75, 0.8, 0.9, 0.95, 1}
	checkMatchStream(t, 42, 2000, 12, func(rng *rand.Rand) float64 { return fixed[rng.Intn(len(fixed))] })
}

// TestPreparedKernelsEquivalence holds the block kernel and the rune
// kernel to the DP reference on longer random titles at thresholds in
// tenths.
func TestPreparedKernelsEquivalence(t *testing.T) {
	checkMatchStream(t, 7, 1500, 16, func(rng *rand.Rand) float64 { return float64(rng.Intn(11)) / 10 })
}

// FuzzThresholderMatch: a one-row block probe at a Thresholder is the DP
// reference for any two strings — ASCII or not, valid UTF-8 or not, past
// the 64-rune word — and any threshold, NaN and the infinities included.
func FuzzThresholderMatch(f *testing.F) {
	f.Add("acme", "acme", math.NaN())
	f.Add("acme", "acme", math.Inf(1))
	f.Add("acme", "acmx", math.Inf(-1))
	f.Add("", "", 0.0)
	f.Add("", "", 1.0)
	f.Add("abcde", "abcdX", 0.8)
	f.Add("kitten", "sitting", 1-3.0/7) // on its own similarity
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40)+"c", 0.9)
	f.Add("caméra", "camera\xff", 0.5)
	f.Fuzz(func(t *testing.T, a, b string, threshold float64) {
		if len(a)*len(b) > 1<<20 {
			t.Skip() // the DP reference is quadratic
		}
		checkMatch(t, NewThresholder(threshold), a, b)
	})
}

// TestMyersMatchesDP drives the block's ASCII distance dispatch — the
// probe's mask table, myersASCII with the row as pattern, and blocked
// Myers — against the reference DP across the word-size boundary (len
// 1..80, including exactly 64), plus mixed ASCII/unicode pairs that must
// take the rune kernel with the ASCII side's runes materialized: at
// matchAll, where every pair reaches the distance, and behind the
// filters at a drawn threshold.
func TestMyersMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	randASCII := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return string(b)
	}
	var thresholders [21]*Thresholder
	for i := range thresholders {
		thresholders[i] = NewThresholder(float64(i) / 20)
	}
	for trial := 0; trial < 3000; trial++ {
		la, lb := rng.Intn(81), rng.Intn(81)
		if trial%7 == 0 {
			la = 63 + rng.Intn(3) // hammer the 64-rune boundary
		}
		sa, sb := randASCII(la), randASCII(lb)
		if trial%5 == 0 {
			sa += "日" // force the mixed-pair rune path
		}
		if got, want := levenshteinPreparedDist(prepare(sa), prepare(sb)), Levenshtein(sa, sb); got != want {
			t.Fatalf("levenshteinPreparedDist(len %d, len %d) = %d, want %d", la, lb, got, want)
		}
		checkMatch(t, matchAll, sa, sb)
		checkMatch(t, thresholders[rng.Intn(len(thresholders))], sa, sb)
	}
}

// TestBagBoundLowerBound pins the pre-filter soundness argument: the
// histogram bag bound never exceeds the edit distance, so rejecting on
// BagBound > maxDist can only reject pairs the DP would reject. Random
// unicode runes are included to exercise histogram-bucket collisions.
func TestBagBoundLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []rune("abcd 日本語é中文x")
	randUni := func() string {
		rs := make([]rune, rng.Intn(14))
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for trial := 0; trial < 4000; trial++ {
		var sa, sb string
		if trial%2 == 0 {
			sa, sb = randTitle(rng, 14), randTitle(rng, 14)
		} else {
			sa, sb = randUni(), randUni()
		}
		pa, pb := prepare(sa), prepare(sb)
		bag, lev := BagBound(pa, pb), Levenshtein(sa, sb)
		if bag > lev {
			t.Fatalf("BagBound(%q,%q) = %d > Levenshtein = %d: filter unsound", sa, sb, bag, lev)
		}
	}
	// Symmetry and identity.
	pa, pb := prepare("abca"), prepare("cab x")
	if BagBound(pa, pb) != BagBound(pb, pa) {
		t.Fatal("BagBound not symmetric")
	}
	if BagBound(pa, pa) != 0 {
		t.Fatal("BagBound(p,p) != 0")
	}
}

// TestPreparedAccessors covers the cached forms: the raw string, the
// rune slice a non-ASCII string carries, and the one an ASCII string
// materializes on demand.
func TestPreparedAccessors(t *testing.T) {
	p := PreparePooled("Beta alpha beta")
	if p.Raw != "Beta alpha beta" || len(p.runes) != 0 {
		t.Fatalf("Raw = %q with %d runes cached, want no runes before a comparison needs them", p.Raw, len(p.runes))
	}
	if n := len(p.runeSeq()); n != 15 {
		t.Fatalf("runeSeq of an ASCII string has %d runes, want 15", n)
	}
	p.Release()
	q := PreparePooled("日本語 x")
	if len(q.runes) != 5 || q.ascii {
		t.Fatalf("a non-ASCII string caches %d runes (ascii=%v), want 5", len(q.runes), q.ascii)
	}
	q.Release()
}

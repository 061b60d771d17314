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

// checkMatch holds Thresholder.Match to the DP reference on one pair:
// it accepts exactly when LevenshteinSimilarity(a, b) >= threshold, and
// then with that very float.
func checkMatch(t *testing.T, th *Thresholder, a, b string) {
	t.Helper()
	want := LevenshteinSimilarity(a, b)
	sim, ok := th.Match(Prepare(a), Prepare(b))
	if ok != (want >= th.threshold) || ok && sim != want {
		t.Fatalf("Thresholder(%v).Match(%.40q, %.40q) = (%v, %v), reference similarity %v",
			th.threshold, a, b, sim, ok, want)
	}
}

// checkMatchStream draws trials random pairs of up to maxLn runes from
// seed and holds each to the DP reference: its distance dispatch, its
// decision at a drawn threshold, and its decision at its own similarity,
// which must accept it.
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
		if got, want := levenshteinPreparedDist(Prepare(a), Prepare(b)), Levenshtein(a, b); got != want {
			t.Fatalf("levenshteinPreparedDist(%q,%q) = %d, want %d", a, b, got, want)
		}
		checkMatch(t, thresholder(threshold(rng)), a, b)
		// Exact-boundary threshold: the pair's own similarity.
		checkMatch(t, thresholder(LevenshteinSimilarity(a, b)), a, b)
	}
}

// TestLevenshteinAtLeastMatchesSimilarity is the threshold-boundary
// differential of the per-pair kernel: Thresholder.Match must agree
// exactly with the DP reference for every (pair, threshold), including
// pairs sitting exactly on the threshold — the case the former
// int(float64(longest)*(1-threshold)) bound got wrong (longest=5,
// t=0.8 yielded maxDist 0 instead of 1).
func TestLevenshteinAtLeastMatchesSimilarity(t *testing.T) {
	// The historical failure first: distance 1 at length 5 is exactly
	// similarity 0.8.
	if _, ok := NewThresholder(0.8).Match(Prepare("abcde"), Prepare("abcdX")); !ok {
		t.Fatal("Thresholder(0.8) rejects a pair exactly on the threshold")
	}
	fixed := []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.75, 0.8, 0.9, 0.95, 1}
	checkMatchStream(t, 42, 2000, 12, func(rng *rand.Rand) float64 { return fixed[rng.Intn(len(fixed))] })
}

// TestPreparedKernelsEquivalence holds the per-pair kernel to the DP
// reference on longer random titles at thresholds in tenths.
func TestPreparedKernelsEquivalence(t *testing.T) {
	checkMatchStream(t, 7, 1500, 16, func(rng *rand.Rand) float64 { return float64(rng.Intn(11)) / 10 })
}

// FuzzThresholderMatch: the per-pair kernel is the DP reference for any
// two strings — ASCII or not, valid UTF-8 or not, past the 64-rune word —
// and any threshold, NaN and the infinities included.
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

// TestMyersMatchesDP drives the bit-parallel ASCII kernel against the
// reference DP across the word-size boundary (len 1..80, including
// exactly 64), plus mixed ASCII/unicode pairs that must take the rune
// path, at every dispatch point (the distance dispatch, and the match
// kernel behind its filters).
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
		if got, want := levenshteinPreparedDist(Prepare(sa), Prepare(sb)), Levenshtein(sa, sb); got != want {
			t.Fatalf("levenshteinPreparedDist(len %d, len %d) = %d, want %d", la, lb, got, want)
		}
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
		pa, pb := Prepare(sa), Prepare(sb)
		bag, lev := BagBound(pa, pb), Levenshtein(sa, sb)
		if bag > lev {
			t.Fatalf("BagBound(%q,%q) = %d > Levenshtein = %d: filter unsound", sa, sb, bag, lev)
		}
	}
	// Symmetry and identity.
	pa, pb := Prepare("abca"), Prepare("cab x")
	if BagBound(pa, pb) != BagBound(pb, pa) {
		t.Fatal("BagBound not symmetric")
	}
	if BagBound(pa, pa) != 0 {
		t.Fatal("BagBound(p,p) != 0")
	}
}

// TestPreparedKernelAllocs asserts the hot path's allocation contract:
// once both sides are prepared, a comparison allocates nothing.
func TestPreparedKernelAllocs(t *testing.T) {
	pa := Prepare("canon eos 5d mark iii digital slr camera body")
	pb := Prepare("canon eos 5d mark iv digital slr camera body only")
	pc := Prepare("nikon d850 45mp full frame dslr with battery grip")
	th := NewThresholder(0.8)
	kernels := map[string]func(){
		"Thresholder.Match/hit":   func() { th.Match(pa, pb) },
		"Thresholder.Match/miss":  func() { th.Match(pa, pc) },
		"levenshteinPreparedDist": func() { levenshteinPreparedDist(pa, pb) },
		"BagBound":                func() { BagBound(pa, pb) },
	}
	for name, fn := range kernels {
		fn() // warm the scratch pools
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestPreparedAccessors covers the small cached-form accessors.
func TestPreparedAccessors(t *testing.T) {
	p := Prepare("Beta alpha beta")
	if p.Raw != "Beta alpha beta" {
		t.Fatalf("Raw = %q", p.Raw)
	}
	if p.RuneLen() != 15 {
		t.Fatalf("RuneLen = %d, want 15", p.RuneLen())
	}
	if n := Prepare("日本語 x").RuneLen(); n != 5 {
		t.Fatalf("RuneLen of a non-ASCII string = %d, want 5 runes", n)
	}
}

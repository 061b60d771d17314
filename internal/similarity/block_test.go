package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// planesOf builds the bit-plane histogram of s the way LevBlock.push
// does: bytes for ASCII, runes otherwise.
func planesOf(s string) *bagPlanes {
	p := new(bagPlanes)
	if !p.fillASCII(s) {
		*p = bagPlanes{}
		for _, r := range s {
			p.add(uint32(r))
		}
	}
	return p
}

// planeBoundRef is the scalar definition the bit planes must reproduce
// exactly: per-bucket rune counts (bucket = rune & 63) clamped at the
// plane count, then the larger one-sided difference.
func planeBoundRef(a, b string) int {
	var ca, cb [64]int
	for _, r := range a {
		ca[uint32(r)&63]++
	}
	for _, r := range b {
		cb[uint32(r)&63]++
	}
	onlyA, onlyB := 0, 0
	for i := range ca {
		x, y := min(ca[i], len(bagPlanes{})), min(cb[i], len(bagPlanes{}))
		if x > y {
			onlyA += x - y
		} else {
			onlyB += y - x
		}
	}
	return max(onlyA, onlyB)
}

// checkPlaneBound asserts the properties LevBlock's filter rests on: the
// planes compute the reference bound (and their popcount the mass stage
// 2 derives the second direction from); the bound never exceeds the
// textbook edit distance; and while neither histogram is saturated it is
// at least the full-count BagBound, so stage 3 may skip that one.
func checkPlaneBound(t *testing.T, a, b string) {
	t.Helper()
	pa, pb := planesOf(a), planesOf(b)
	ab, ba := bagExcess(pa, pb), bagExcess(pb, pa)
	got := max(ab, ba)
	if want := planeBoundRef(a, b); got != want {
		t.Fatalf("plane bound(%.20q, %.20q) = %d, reference %d", a, b, got, want)
	}
	if ab-ba != pa.mass()-pb.mass() {
		t.Fatalf("plane bound(%.20q, %.20q): excesses %d, %d disagree with masses %d, %d", a, b, ab, ba, pa.mass(), pb.mass())
	}
	if d := levenshteinRunes([]rune(a), []rune(b)); got > d {
		t.Fatalf("plane bound(%.20q, %.20q) = %d exceeds edit distance %d: filter unsound", a, b, got, d)
	}
	if full := BagBound(prepare(a), prepare(b)); !pa.saturated() && !pb.saturated() && got < full {
		t.Fatalf("plane bound(%.20q, %.20q) = %d below BagBound %d with no bucket saturated", a, b, got, full)
	}
}

var (
	mixedAlphabet = []rune("abc dé日")
	wideAlphabet  = []rune("éüß日本語中文")
	// collideAlphabet is eight runes in one bucket (r & 63 == 1): counts
	// merge, so a single bucket saturates quickly.
	collideAlphabet = []rune("aAÁāŁ ⁁ぁ")
)

// planeBoundSeeds are the fixed corners: empty strings, one bucket pushed
// past the saturation cap, lengths across 64 and across maxCachedBound.
var planeBoundSeeds = [][2]string{
	{"", ""},
	{"", "abc"},
	{"aaaa", "aaaaa"},  // both saturated: the bound sees no difference
	{"aaa", "aaaaaaa"}, // one side saturates
	{strings.Repeat("a", 400), strings.Repeat("a", 3)},
	{strings.Repeat("ab", 32), strings.Repeat("ba", 32) + "x"},
	{strings.Repeat("é日", 32), strings.Repeat("日é", 33)},
	{strings.Repeat("abcdefgh ", 57), strings.Repeat("abcdefgh ", 56) + "xyz"},
	{"aA ⁁", "Áā"},
	{"\xff\xfe", "a\x80"}, // invalid UTF-8 decodes to U+FFFD on every path
}

func TestPlaneBound(t *testing.T) {
	for _, s := range planeBoundSeeds {
		checkPlaneBound(t, s[0], s[1])
	}
	rng := rand.New(rand.NewSource(31))
	alphabets := [][]rune{asciiAlphabet, mixedAlphabet, wideAlphabet, collideAlphabet}
	lengths := []int{0, 1, 5, 13, 63, 64, 65, maxCachedBound - 1, maxCachedBound, maxCachedBound + 1}
	for trial := 0; trial < 400; trial++ {
		alphabet := alphabets[trial%len(alphabets)]
		a := randRunes(rng, lengths[rng.Intn(len(lengths))], alphabet)
		b := randRunes(rng, lengths[rng.Intn(len(lengths))], alphabet)
		if trial%2 == 0 {
			b = mutate(rng, a, 6, alphabet)
		}
		checkPlaneBound(t, string(a), string(b))
	}
	for trial := 0; trial < 3000; trial++ {
		alphabet := alphabets[trial%len(alphabets)]
		a := randRunes(rng, rng.Intn(24), alphabet)
		b := randRunes(rng, rng.Intn(24), alphabet)
		checkPlaneBound(t, string(a), string(b))
	}
}

func FuzzPlaneBound(f *testing.F) {
	for _, s := range planeBoundSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 2000 || len(b) > 2000 {
			t.Skip() // the reference DP is quadratic
		}
		checkPlaneBound(t, a, b)
	})
}

// refMatch is the rune-DP reference decision: textbook distance, the
// similarity formula of LevenshteinSimilarity, compared to the
// threshold.
func refMatch(a, b string, threshold float64) (float64, bool) {
	ra, rb := []rune(a), []rune(b)
	longest := max(len(ra), len(rb))
	if longest == 0 {
		return 1, threshold <= 1
	}
	sim := 1 - float64(levenshteinRunes(ra, rb))/float64(longest)
	return sim, sim >= threshold
}

// blockCorpus returns strings that make every stage of the filter chain
// decide something: clusters of near-duplicates over ASCII, mixed and
// non-ASCII alphabets, empty strings, and lengths across 64 runes and
// across maxCachedBound.
func blockCorpus(rng *rand.Rand) []string {
	out := []string{"", "", "a", "é"}
	add := func(alphabet []rune, n, copies, edits int) {
		base := randRunes(rng, n, alphabet)
		out = append(out, string(base))
		for c := 0; c < copies; c++ {
			out = append(out, string(mutate(rng, base, edits, alphabet)))
		}
	}
	for i := 0; i < 6; i++ {
		add(asciiAlphabet, 1+rng.Intn(20), 3, 3)
		add(mixedAlphabet, 1+rng.Intn(20), 2, 3)
		add(wideAlphabet, 1+rng.Intn(12), 1, 2)
	}
	add(asciiAlphabet, 62, 3, 4)
	add(asciiAlphabet, 70, 2, 8)
	add(mixedAlphabet, 64, 2, 4)
	add(asciiAlphabet, maxCachedBound-2, 2, 5)
	add(asciiAlphabet, 2*maxCachedBound, 1, 300)
	add(wideAlphabet, maxCachedBound, 1, 5)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestLevBlockMatchesThresholder: a block probe at a Thresholder is
// exactly the rune-DP reference applied to each row in ascending order:
// same hit set, same float similarities.
func TestLevBlockMatchesThresholder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	corpus := blockCorpus(rng)
	for _, threshold := range []float64{0, 0.5, 0.8, 1, 1.5} {
		th := NewThresholder(threshold)
		var b LevBlock
		b.Use(th)
		var loaded []string
		for n, s := range corpus {
			// Alternate the three shapes the reducers use: a self-join row
			// (probe, keep), a loaded row (add) and a cross probe (probe,
			// drop).
			if n%3 == 1 {
				b.Add(s)
				loaded = append(loaded, s)
				continue
			}
			keep := n%3 == 0
			rows, sims := b.Probe(s, keep)
			var wantRows []int32
			var wantSims []float64
			for i, c := range loaded {
				if sim, ok := refMatch(c, s, threshold); ok {
					wantRows, wantSims = append(wantRows, int32(i)), append(wantSims, sim)
				}
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(sims, wantSims) {
				t.Fatalf("th=%v probe %d %.12q over %d rows: block says rows %v sims %v, rune DP rows %v sims %v",
					threshold, n, s, len(loaded), rows, sims, wantRows, wantSims)
			}
			if keep {
				loaded = append(loaded, s)
			}
			if b.Len() != len(loaded) {
				t.Fatalf("th=%v probe %d keep=%v: block has %d rows, want %d", threshold, n, keep, b.Len(), len(loaded))
			}
		}
		b.Reset()
	}
}

// TestLevBlockFiltersNoWeakerThanPerPair: on dictionary-word titles —
// English letter frequencies, where 'e', 't' and the space saturate the
// bit planes — the block's filter chain lets no more pairs through to
// the distance kernel than the length filter and the full-count
// BagBound do applied pair by pair.
func TestLevBlockFiltersNoWeakerThanPerPair(t *testing.T) {
	th := NewThresholder(0.8)
	for _, words := range []int{3, 5, 8, 16} {
		titles := dictionaryTitles(words)
		perPair, lengthOnly := 0, 0
		for i, a := range titles {
			for _, c := range titles[:i] {
				longest := max(len(a), len(c))
				if maxDist := th.MaxDist(longest); longest-min(len(a), len(c)) <= maxDist {
					lengthOnly++
					if BagBound(prepare(a), prepare(c)) <= maxDist {
						perPair++
					}
				}
			}
		}
		var b LevBlock
		b.Use(th)
		for _, s := range titles {
			b.Probe(s, true)
		}
		if b.verified > perPair {
			t.Errorf("%d-word titles: %d pairs reached the block's distance kernel, %d pass the length filter and BagBound pair by pair (%d the length filter)",
				words, b.verified, perPair, lengthOnly)
		}
		b.Reset()
	}
}

// dictionaryTitles returns 150 titles of the given number of words drawn
// from a product vocabulary, plus two past the bound cache, where the
// length window is open above and the overflow bucket has to restate the
// filter.
func dictionaryTitles(words int) []string {
	vocab := strings.Fields(`the and for with digital camera lens black white
		wireless portable leather stainless steel edition series professional
		battery charger adapter cable case cover screen protector replacement`)
	rng := rand.New(rand.NewSource(int64(words)))
	titles := make([]string, 150)
	for i := range titles {
		parts := []string{"canon"}
		for w := 1; w < words; w++ {
			parts = append(parts, vocab[rng.Intn(len(vocab))])
		}
		titles[i] = strings.Join(parts, " ")
	}
	return append(titles, strings.Repeat("canon lens ", 90), strings.Repeat("canon lens ", 60))
}

// generatorTitles returns n titles of benchmark/gen.go's shape: a shared
// three-letter prefix completed by up to four random letters, two to
// five words of two to eight random letters, and a tenth of them
// duplicates of an earlier title with one or two character edits.
func generatorTitles(rng *rand.Rand, n int) []string {
	letters := []rune("abcdefghijklmnopqrstuvwxyz")
	word := func(b []rune, lo, hi int) []rune {
		return append(b, randRunes(rng, lo+rng.Intn(hi-lo+1), letters)...)
	}
	titles := make([]string, 0, n)
	for len(titles) < n {
		if len(titles) > 0 && rng.Intn(10) == 0 {
			base := []rune(titles[rng.Intn(len(titles))])
			titles = append(titles, "abc"+string(mutate(rng, base[3:], 2, letters)))
			continue
		}
		b := word([]rune("abc"), 0, 4)
		for w, words := 0, 2+rng.Intn(4); w < words; w++ {
			b = word(append(b, ' '), 2, 8)
		}
		titles = append(titles, string(b))
	}
	return titles
}

// chainPasses applies the block's filter chain to one pair by itself:
// the length filter, the plane bound in both
// directions, and the full-count BagBound where a histogram is
// saturated. Exactly the pairs it passes reach the distance kernel.
func chainPasses(th *Thresholder, a, c string) bool {
	la, lc := utf8.RuneCountInString(a), utf8.RuneCountInString(c)
	longest := max(la, lc)
	if longest == 0 {
		return false // two empty strings are decided without a distance
	}
	maxDist := th.MaxDist(longest)
	if longest-min(la, lc) > maxDist {
		return false
	}
	pa, pc := planesOf(a), planesOf(c)
	if max(bagExcess(pa, pc), bagExcess(pc, pa)) > maxDist {
		return false
	}
	return !pa.saturated() && !pc.saturated() || BagBound(prepare(a), prepare(c)) <= maxDist
}

// TestLevBlockVerifiesExactlyTheChain: the length buckets decide whole
// lengths at once, but they must neither skip nor add a verification —
// on the benchmark generator's titles (one skewed 1,300-row block, and
// the flat workloads' 8-row groups) and on dictionary titles, the pairs
// reaching the block's distance kernel are exactly those the filter
// chain passes pair by pair.
func TestLevBlockVerifiesExactlyTheChain(t *testing.T) {
	th := NewThresholder(0.8)
	rng := rand.New(rand.NewSource(41))
	shapes := []struct {
		name   string
		titles []string
		group  int
	}{
		{"generator skew block", generatorTitles(rng, 1300), 1300},
		{"generator flat groups", generatorTitles(rng, 800), 8},
	}
	for _, words := range []int{3, 5, 8, 16} {
		titles := dictionaryTitles(words)
		shapes = append(shapes, struct {
			name   string
			titles []string
			group  int
		}{fmt.Sprintf("%d-word titles", words), titles, len(titles)})
	}
	for _, shape := range shapes {
		var b LevBlock
		verified, want := 0, 0
		for g := 0; g < len(shape.titles); g += shape.group {
			group := shape.titles[g:min(g+shape.group, len(shape.titles))]
			b.Use(th)
			for i, s := range group {
				b.Probe(s, true)
				for _, c := range group[:i] {
					if chainPasses(th, c, s) {
						want++
					}
				}
			}
			verified += b.verified
			b.Reset()
		}
		if verified != want {
			t.Errorf("%s: %d pairs reached the block's distance kernel, the per-pair chain passes %d", shape.name, verified, want)
		}
	}
}

// TestThresholderWindow: the cached length window is exactly the set of
// partner lengths the per-pair length filter admits, and past the cache
// it never excludes one.
func TestThresholderWindow(t *testing.T) {
	for _, threshold := range []float64{-1, 0, 0.3, 0.5, 0.8, 0.95, 1, 1.5} {
		th := NewThresholder(threshold)
		for _, l := range []int{0, 1, 2, 5, 9, 10, 64, 100, maxCachedBound, maxCachedBound + 1, 3 * maxCachedBound} {
			lo, hi := th.window(l)
			for k := 0; k <= 6*maxCachedBound; k++ {
				longest, diff := max(l, k), max(l, k)-min(l, k)
				passes := diff <= th.MaxDist(longest)
				inside := int64(k) >= int64(lo) && int64(k) <= int64(hi)
				if passes && !inside {
					t.Fatalf("th=%v: lengths (%d,%d) pass the filter but window is [%d,%d]", threshold, l, k, lo, hi)
				}
				if !passes && inside && l <= maxCachedBound && k <= windowScan {
					t.Fatalf("th=%v: lengths (%d,%d) fail the filter but cached window is [%d,%d]", threshold, l, k, lo, hi)
				}
			}
		}
	}
}

// TestLevBlockSteadyStateAllocs pins the block's allocation contract: a
// warm block loads and probes a whole group — hits, non-ASCII rows and
// dropped cross probes included — without allocating. The group reaches
// every ASCII distance kernel: the probe's mask table (probes of 64
// bytes or fewer), myersASCII (a 70-byte probe against a 60-byte row)
// and myersASCIIBlocked (two 180-byte rows).
func TestLevBlockSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; steady-state 0 allocs does not hold")
	}
	th := NewThresholder(0.8)
	group := []string{
		"canon eos 5d mark iii digital slr camera body",
		"canon eos 5d mark iv digital slr camera body",
		"nikon d850 45mp full frame dslr with battery grip",
		"canon eos 5d mark iii digital slr camera bodies",
		"caméra canon eos 5d mark iii",
		"caméra canon eos 5d mark iv",
		strings.Repeat("abc", 20),
		strings.Repeat("abc", 23) + "a",
		strings.Repeat("abc", 60),
		strings.Repeat("acb", 60),
	}
	var b LevBlock
	hits := 0
	cycle := func() {
		b.Use(th)
		for _, s := range group {
			rows, _ := b.Probe(s, true)
			hits += len(rows)
		}
		for _, s := range group {
			rows, _ := b.Probe(s, false)
			hits += len(rows)
		}
		b.Reset()
	}
	cycle()
	if hits == 0 {
		t.Fatal("the group must produce hits for the pin to cover the hit path")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm load+probe cycle: %v allocs, want 0", allocs)
	}
}

// TestLevBlockResetDropsReferences: on the external dataflow a row's
// string aliases a ~32KB decode block, so a block waiting in a free list
// must not reference any — not even past its slices' lengths, where a
// dropped cross probe or an earlier, larger group left entries — and no
// row may stay filed in any length bucket.
func TestLevBlockResetDropsReferences(t *testing.T) {
	th := NewThresholder(0.8)
	var b LevBlock
	b.Use(th)
	for _, s := range []string{"alpha one", "alpha two", "álpha three", "beta", strings.Repeat("long ", 200)} {
		b.Probe(s, true)
	}
	b.Probe("alpha öne", false) // materializes runes of ASCII rows, then is dropped
	b.Reset()
	if b.Len() != 0 || b.th != nil {
		t.Fatalf("Reset left %d rows, threshold %v", b.Len(), b.th)
	}
	for i, s := range b.raws[:cap(b.raws)] {
		if s != "" {
			t.Errorf("raws[%d] still references %q after Reset", i, s)
		}
	}
	for i, p := range b.wide[:cap(b.wide)] {
		if p != nil {
			t.Errorf("wide[%d] still holds a Prepared after Reset", i)
		}
	}
	checkNoBucketRows(t, &b)
	if b.peq != [128]uint64{} {
		t.Error("probe pattern table not zeroed")
	}
}

// checkNoBucketRows asserts that a Reset block files no row under any
// length.
func checkNoBucketRows(t *testing.T, b *LevBlock) {
	t.Helper()
	if len(b.occupied) != 0 {
		t.Errorf("lengths %v still occupied after Reset", b.occupied)
	}
	for k, i := range b.index {
		if i != 0 {
			t.Errorf("length %d still indexes bucket %d after Reset", k, i-1)
		}
	}
	for i, bk := range b.buckets {
		if len(bk) != 0 {
			t.Errorf("bucket %d still files %d rows after Reset", i, len(bk))
		}
	}
}

// TestLevBlockPooledCapacityBounded: a Reset block keeps at most
// maxPooledBlockRows of capacity, in row order and across its buckets
// together, whatever the groups before it looked like — and the block
// it leaves decides the next group correctly.
func TestLevBlockPooledCapacityBounded(t *testing.T) {
	th := NewThresholder(0.8)
	rng := rand.New(rand.NewSource(9))
	var mixed []string
	for n := 0; n < 600; n += 7 {
		mixed = append(mixed, string(randRunes(rng, n, mixedAlphabet)))
	}
	huge := strings.Repeat("x", 10_000)
	load := func(b *LevBlock, rows []string) {
		for _, s := range rows {
			b.Add(s)
		}
	}
	checkBounded := func(name string, b *LevBlock) {
		t.Helper()
		held := 0
		for _, bk := range b.buckets {
			held += cap(bk)
		}
		if cap(b.raws) > maxPooledBlockRows || held > maxPooledBlockRows || held != b.bucketCap {
			t.Errorf("%s: Reset block keeps %d rows of capacity and %d in buckets (counted %d), bound %d",
				name, cap(b.raws), held, b.bucketCap, maxPooledBlockRows)
		}
		checkNoBucketRows(t, b)
	}

	var b LevBlock
	b.Use(th)
	rows := []string{huge}
	for len(rows) <= maxPooledBlockRows {
		rows = append(rows, mixed[len(rows)%len(mixed)])
	}
	load(&b, rows)
	b.Reset()
	checkBounded("one oversized group", &b)

	// Groups that are each small enough can still pile capacity up in
	// different buckets: 40,000 rows of one length, then one short row
	// ahead of 40,000 of another, fill two buckets.
	b.Use(th)
	load(&b, slices.Repeat([]string{"abcdefgh"}, 40_000))
	b.Reset()
	b.Use(th)
	load(&b, append([]string{"ab"}, slices.Repeat([]string{"abcdefghij"}, 40_000)...))
	b.Reset()
	checkBounded("two groups filling different buckets", &b)

	b.Use(th)
	group := append([]string{huge, huge + "y"}, mixed[:20]...)
	for i, s := range group {
		rows, sims := b.Probe(s, true)
		var wantRows []int32
		var wantSims []float64
		for j, c := range group[:i] {
			if sim, ok := refMatch(c, s, th.threshold); ok {
				wantRows, wantSims = append(wantRows, int32(j)), append(wantSims, sim)
			}
		}
		if !slices.Equal(rows, wantRows) || !slices.Equal(sims, wantSims) {
			t.Fatalf("after a pooled Reset, probe %d: block says rows %v sims %v, rune DP %v %v", i, rows, sims, wantRows, wantSims)
		}
	}
	b.Reset()
}

// FuzzLevBlockProbe: a block is the rune DP. The input is a row list
// (split at newlines) and a byte string of shapes: each row is probed
// and kept, added, or probed and dropped as the next byte says (probed
// and kept once they run out), at a threshold the first byte picks.
// Every probe must return exactly the rows and similarities refMatch
// gives pair by pair.
func FuzzLevBlockProbe(f *testing.F) {
	f.Add("", []byte{})
	f.Add("\n\n", []byte{1, 0, 1, 2})
	f.Add("caméra\ncamera\n日本語\n日本\n\xff\xfe", []byte{1, 0, 2, 0, 1, 2, 1})
	r63, r64, r65 := strings.Repeat("ab", 31)+"c", strings.Repeat("ab", 32), strings.Repeat("ab", 32)+"c"
	f.Add(r63+"\n"+r64+"\n"+r65+"\n"+strings.Repeat("é", 64)+"\n"+strings.Repeat("é", 65), []byte{1})
	long := strings.Repeat("abcdefgh ", 60)
	f.Add(long+"\n"+long[1:]+"\nabc\n"+long+"x\n"+strings.Repeat("é", maxCachedBound+3), []byte{2, 1, 0, 2, 0, 1})
	f.Add("acme\nacme\n\nacme", []byte{4}) // no pair reaches a NaN threshold
	thresholds := []*Thresholder{NewThresholder(0.8), NewThresholder(0.5), NewThresholder(1), NewThresholder(0), NewThresholder(math.NaN())}
	f.Fuzz(func(t *testing.T, text string, ops []byte) {
		if len(text) > 1<<14 {
			t.Skip() // the DP oracle is quadratic
		}
		th := thresholds[0]
		if len(ops) > 0 {
			th, ops = thresholds[int(ops[0])%len(thresholds)], ops[1:]
		}
		var b LevBlock
		b.Use(th)
		var loaded []string
		for n, s := range strings.Split(text, "\n") {
			op := byte(0)
			if len(ops) > 0 {
				op, ops = ops[0]%3, ops[1:]
			}
			if op == 1 {
				b.Add(s)
				loaded = append(loaded, s)
				continue
			}
			rows, sims := b.Probe(s, op == 0)
			var wantRows []int32
			var wantSims []float64
			for i, c := range loaded {
				if sim, ok := refMatch(c, s, th.threshold); ok {
					wantRows, wantSims = append(wantRows, int32(i)), append(wantSims, sim)
				}
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(sims, wantSims) {
				t.Fatalf("probe %d %.20q over %d rows: block says rows %v sims %v, rune DP rows %v sims %v",
					n, s, len(loaded), rows, sims, wantRows, wantSims)
			}
			if op == 0 {
				loaded = append(loaded, s)
			}
		}
		if b.Len() != len(loaded) {
			t.Fatalf("block has %d rows, want %d", b.Len(), len(loaded))
		}
		b.Reset()
		checkNoBucketRows(t, &b)
	})
}

package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/entity"
	"repro/internal/er"
)

func blockCounts(es []entity.Entity, attr string) map[string]int {
	counts := make(map[string]int)
	for _, e := range es {
		counts[e.Attr(attr)]++
	}
	return counts
}

func TestExponentialUniform(t *testing.T) {
	es := Exponential(1000, 10, 0, 1)
	if len(es) != 1000 {
		t.Fatalf("n = %d", len(es))
	}
	counts := blockCounts(es, AttrBlock)
	if len(counts) != 10 {
		t.Fatalf("blocks = %d, want 10", len(counts))
	}
	for k, c := range counts {
		if c != 100 {
			t.Errorf("s=0 block %q has %d entities, want 100", k, c)
		}
	}
}

func TestExponentialSkewShape(t *testing.T) {
	es := Exponential(10000, 100, 1.0, 1)
	counts := blockCounts(es, AttrBlock)
	// |Φk| ∝ e^(−k): block 0 ≈ (1−e^(−1)) ≈ 63.2% of entities.
	b0 := counts["b0000"]
	if frac := float64(b0) / 10000; math.Abs(frac-0.632) > 0.01 {
		t.Errorf("block 0 fraction = %.3f, want ≈ 0.632", frac)
	}
	prev := b0
	for k := 1; k < 100; k++ {
		c := counts[fmt.Sprintf("b%04d", k)]
		if c > prev {
			t.Errorf("block %d larger than block %d (%d > %d)", k, k-1, c, prev)
		}
		prev = c
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Errorf("sizes sum to %d, want 10000", total)
	}
}

func TestExponentialDeterministic(t *testing.T) {
	a := Exponential(500, 20, 0.7, 42)
	b := Exponential(500, 20, 0.7, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different datasets")
	}
	c := Exponential(500, 20, 0.7, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestExponentialPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Exponential(0, 10, 0, 1) },
		func() { Exponential(10, 0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestApportionExact(t *testing.T) {
	for _, tc := range []struct {
		n       int
		weights []float64
	}{
		{10, []float64{1, 1, 1}},
		{7, []float64{5, 3, 2}},
		{1, []float64{0.1, 0.9}},
		{100, []float64{1e-9, 1}},
	} {
		sum := 0.0
		for _, w := range tc.weights {
			sum += w
		}
		sizes := apportion(tc.n, tc.weights, sum)
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != tc.n {
			t.Errorf("apportion(%d, %v) sums to %d", tc.n, tc.weights, total)
		}
	}
}

func TestGenerateProfile(t *testing.T) {
	spec := DS1Spec(0.05)
	es := Generate(spec)
	dups := int(float64(spec.N) * spec.DupRate)
	if len(es) != spec.N+dups {
		t.Fatalf("generated %d entities, want %d", len(es), spec.N+dups)
	}
	gotDups := 0
	for _, e := range es {
		if e.ID[0] == 'd' {
			gotDups++
		}
	}
	if gotDups != dups {
		t.Fatalf("generated %d duplicates, want %d", gotDups, dups)
	}
	st := ComputeStats(es, AttrTitle, BlockKey())
	if st.LargestBlockFrac > 0.10 {
		t.Errorf("largest block holds %.1f%% of entities, want a few percent", 100*st.LargestBlockFrac)
	}
	if st.LargestPairsFrac < 0.60 {
		t.Errorf("largest block holds %.1f%% of pairs, want > 60%% (paper: >70%%)", 100*st.LargestPairsFrac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DS1Spec(0.01))
	b := Generate(DS1Spec(0.01))
	if !reflect.DeepEqual(a, b) {
		t.Error("DS1 generation not deterministic")
	}
}

func TestSpecScaleValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %g did not panic", bad)
				}
			}()
			DS1Spec(bad)
		}()
	}
}

func TestHeadTailSizes(t *testing.T) {
	sizes := headTailSizes(1000, 10, 0.05, 0.5)
	if len(sizes) != 10 {
		t.Fatalf("len = %d", len(sizes))
	}
	if sizes[0] != 50 {
		t.Errorf("head = %d, want 50", sizes[0])
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 1000 {
		t.Errorf("total = %d", total)
	}
	if got := headTailSizes(100, 1, 0.05, 0.5); len(got) != 1 || got[0] != 100 {
		t.Errorf("single block: %v", got)
	}
}

func TestTwoSourcesPartition(t *testing.T) {
	es := Generate(DS1Spec(0.01))
	r, s := TwoSources(es, 0.5, 1)
	if len(r)+len(s) != len(es) {
		t.Fatalf("split lost entities: %d + %d != %d", len(r), len(s), len(es))
	}
	frac := float64(len(r)) / float64(len(es))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("R fraction = %.2f, want ≈ 0.5", frac)
	}
	r2, s2 := TwoSources(es, 0.5, 1)
	if !reflect.DeepEqual(r, r2) || !reflect.DeepEqual(s, s2) {
		t.Error("TwoSources not deterministic")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(nil, AttrTitle, BlockKey())
	if st.Entities != 0 || st.Pairs != 0 || st.LargestBlockFrac != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// TestPerturbKeepsPrefix: a duplicate stays in its base's block.
func TestPerturbKeepsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := BlockKey()
	for _, e := range Generate(DS1Spec(0.02)) {
		base := e.Attr(AttrTitle)
		if dup := perturb(rng, base); key(dup) != key(base) {
			t.Fatalf("perturbation left the block: %q -> %q", base, dup)
		}
	}
}

func TestBlockPrefixesDistinct(t *testing.T) {
	Generate(Spec{N: 100, Blocks: 26 * 26 * 26, Alpha: 0.5, Seed: 1}) // the max block count must not panic
	defer func() {
		if recover() == nil {
			t.Error("too many blocks did not panic")
		}
	}()
	Generate(Spec{N: 10, Blocks: 26*26*26 + 1, Alpha: 0.5, Seed: 1})
}

func TestZipfSizesMonotone(t *testing.T) {
	sizes := zipfSizes(10000, 50, 1.0)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("zipf sizes not monotone at %d: %d > %d", i, sizes[i], sizes[i-1])
		}
	}
}

// TestBlockKeyIsThreeLetterPrefix: every DS1, DS2 and two-source title
// starts with three lowercase ASCII letters, and those are its key, so
// the figures block generated data on the same keys whether the key
// normalizes or not.
func TestBlockKeyIsThreeLetterPrefix(t *testing.T) {
	key := BlockKey()
	ds1 := Generate(DS1Spec(0.05))
	r, s := TwoSources(ds1, 0.5, 17)
	for name, es := range map[string][]entity.Entity{
		"DS1": ds1, "DS2": Generate(DS2Spec(0.01)), "R": r, "S": s,
	} {
		for _, e := range es {
			title := e.Attr(AttrTitle)
			if len(title) < 3 || strings.Trim(title[:3], lowercase) != "" {
				t.Fatalf("%s: title %q does not start with three [a-z] bytes", name, title)
			}
			if k := key(title); k != title[:3] {
				t.Fatalf("%s: BlockKey(%q) = %q, want %q", name, title, k, title[:3])
			}
		}
	}
}

// TestBlockKeyMatchesPipelineKey: erbench -in and ermatch block real
// data alike. datagen.BlockKey, which the figures use, and the key
// er.DistParams expands to, which ermatch uses, agree on titles with
// upper case, leading punctuation and digits.
func TestBlockKeyMatchesPipelineKey(t *testing.T) {
	cfg, err := (&er.DistParams{Strategy: "basic", Attr: AttrTitle, KeyPrefix: 3, R: 1}).Config()
	if err != nil {
		t.Fatal(err)
	}
	key := BlockKey()
	for _, title := range []string{"Foo bar", "foo baz", "(foo)", "9to5", "  FOO", "\"Quoted\" title", "Ünïcode", "ab", ""} {
		if got, want := key(title), cfg.BlockKey(title); got != want {
			t.Errorf("BlockKey(%q) = %q, the pipeline's key is %q", title, got, want)
		}
	}
}

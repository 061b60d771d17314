package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/blocking"
	"repro/internal/entity"
)

// Spec describes a synthetic dataset with a Zipf-like block distribution
// over 3-letter title prefixes.
type Spec struct {
	// N is the number of base entities to generate (before duplicates).
	N int
	// Blocks is the number of distinct blocking keys (title prefixes).
	Blocks int
	// Alpha is the Zipf exponent of the tail block-size distribution.
	Alpha float64
	// HeadFrac pins the largest block to this fraction of the entities.
	// ~4-5% with a flat tail (Alpha ≈ 0.5) reproduces DS1's documented
	// profile: the largest block holds only a few percent of the
	// entities but >70% of all pairs — small enough that sorting the
	// input concentrates it into one or two partitions (the Figure 11
	// effect), big enough to dominate Basic's runtime.
	HeadFrac float64
	// DupRate is the fraction of additional near-duplicate entities to
	// inject (0.05 = 5% duplicates, each a typo-perturbed copy of a base
	// entity, sharing its title prefix so blocking keeps them together).
	DupRate float64
	// Seed makes the dataset a deterministic function of the spec.
	Seed int64
}

// DS1Spec returns the generator spec standing in for the paper's DS1
// (~114,000 product descriptions). scale in (0,1] shrinks the dataset
// proportionally for laptop-sized runs; scale=1 is full size.
func DS1Spec(scale float64) Spec {
	n := scaled(114000, scale)
	// The block count does not shrink with the dataset: the largest
	// block's share of all pairs depends on the tail's block count, so
	// keeping it fixed preserves the paper's ">70% of pairs in the
	// largest block" profile at every scale.
	return Spec{
		N:        n,
		Blocks:   minInt(2375, maxInt(20, n/3)),
		Alpha:    0.5,
		HeadFrac: 0.045,
		DupRate:  0.04,
		Seed:     1108,
	}
}

// DS2Spec returns the spec standing in for DS2 (~1.4M publication
// records, an order of magnitude larger than DS1).
func DS2Spec(scale float64) Spec {
	n := scaled(1400000, scale)
	return Spec{
		N:        n,
		Blocks:   minInt(4242, maxInt(40, n/3)),
		Alpha:    0.5,
		HeadFrac: 0.04,
		DupRate:  0.03,
		Seed:     1631,
	}
}

func scaled(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("datagen: scale must be in (0,1], got %g", scale))
	}
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Generate produces the dataset: base entities with Zipf block sizes,
// then injected near-duplicates.
func Generate(spec Spec) []entity.Entity {
	if spec.N <= 0 || spec.Blocks <= 0 {
		panic(fmt.Sprintf("datagen: Generate requires N > 0 and Blocks > 0, got N=%d Blocks=%d", spec.N, spec.Blocks))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	prefixes := blockPrefixes(spec.Blocks, rng)
	var sizes []int
	if spec.HeadFrac > 0 {
		sizes = headTailSizes(spec.N, spec.Blocks, spec.HeadFrac, spec.Alpha)
	} else {
		sizes = zipfSizes(spec.N, spec.Blocks, spec.Alpha)
	}

	entities := make([]entity.Entity, 0, spec.N)
	id := 0
	for k, size := range sizes {
		for i := 0; i < size; i++ {
			title := prefixes[k] + titleTail(rng)
			entities = append(entities, entity.New(fmt.Sprintf("e%08d", id), AttrTitle, title))
			id++
		}
	}

	dups := int(float64(len(entities)) * spec.DupRate)
	for d := 0; d < dups; d++ {
		base := entities[rng.Intn(spec.N)]
		entities = append(entities, entity.New(fmt.Sprintf("d%08d", d), AttrTitle, perturb(rng, base.Attr(AttrTitle))))
	}

	// Shuffle so the on-disk (and partition) order is independent of the
	// blocking key — the "unsorted" input of Figure 11.
	rng.Shuffle(len(entities), func(i, j int) {
		entities[i], entities[j] = entities[j], entities[i]
	})
	return entities
}

// BlockKey returns the paper's default blocking for DS1/DS2, the first
// three letters of the title: blocking.NormalizedPrefix(3), the key
// ermatch and the pipeline use. Every generated title starts with three
// lowercase ASCII letters, which are its key.
func BlockKey() blocking.KeyFunc { return blocking.NormalizedPrefix(3) }

// blockPrefixes returns n distinct 3-letter prefixes in a seeded-random
// order so that block sizes are not correlated with lexicographic order.
func blockPrefixes(n int, rng *rand.Rand) []string {
	if n > 26*26*26 {
		panic(fmt.Sprintf("datagen: at most %d distinct 3-letter prefixes exist, requested %d", 26*26*26, n))
	}
	all := make([]string, 0, 26*26*26)
	for a := 0; a < 26; a++ {
		for b := 0; b < 26; b++ {
			for c := 0; c < 26; c++ {
				all = append(all, string([]byte{lowercase[a], lowercase[b], lowercase[c]}))
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// titleTail generates the rest of a title after its 3-letter prefix.
func titleTail(rng *rand.Rand) string {
	var b strings.Builder
	// Complete the first word, then add 2-5 more words.
	for i, l := 0, rng.Intn(5); i < l; i++ {
		b.WriteByte(lowercase[rng.Intn(26)])
	}
	words := 2 + rng.Intn(4)
	for w := 0; w < words; w++ {
		b.WriteByte(' ')
		l := 2 + rng.Intn(7)
		for i := 0; i < l; i++ {
			b.WriteByte(lowercase[rng.Intn(26)])
		}
	}
	return b.String()
}

// perturb applies 1-2 random single-character edits to s, never touching
// the first three characters (so the duplicate stays in the same block,
// as real-world typos in the title tail would).
func perturb(rng *rand.Rand, s string) string {
	b := []byte(s)
	edits := 1 + rng.Intn(2)
	for e := 0; e < edits && len(b) > 4; e++ {
		pos := 3 + rng.Intn(len(b)-3)
		switch rng.Intn(3) {
		case 0: // substitute
			b[pos] = lowercase[rng.Intn(26)]
		case 1: // delete
			b = append(b[:pos], b[pos+1:]...)
		default: // insert
			b = append(b[:pos], append([]byte{lowercase[rng.Intn(26)]}, b[pos:]...)...)
		}
	}
	return string(b)
}

// TwoSources splits a generated dataset into two sources R and S with
// the given fraction of entities going to R (deterministic under seed).
func TwoSources(entities []entity.Entity, fracR float64, seed int64) (r, s []entity.Entity) {
	rng := rand.New(rand.NewSource(seed))
	for _, e := range entities {
		if rng.Float64() < fracR {
			r = append(r, e)
		} else {
			s = append(s, e)
		}
	}
	return r, s
}

// Stats summarizes a dataset's block distribution (the contents of the
// paper's Figure 8 table).
type Stats struct {
	Entities         int
	Blocks           int
	LargestBlock     int
	LargestBlockFrac float64 // share of entities
	Pairs            int64
	LargestPairsFrac float64 // share of pairs in the largest block
}

// ComputeStats derives Figure 8-style statistics for a dataset under the
// given blocking.
func ComputeStats(entities []entity.Entity, attr string, key blocking.KeyFunc) Stats {
	counts := make(map[string]int)
	for _, e := range entities {
		counts[key(e.Attr(attr))]++
	}
	st := Stats{Entities: len(entities), Blocks: len(counts)}
	var largestPairs int64
	for _, c := range counts {
		p := int64(c) * int64(c-1) / 2
		st.Pairs += p
		if c > st.LargestBlock {
			st.LargestBlock = c
			largestPairs = p
		}
	}
	if st.Entities > 0 {
		st.LargestBlockFrac = float64(st.LargestBlock) / float64(st.Entities)
	}
	if st.Pairs > 0 {
		st.LargestPairsFrac = float64(largestPairs) / float64(st.Pairs)
	}
	return st
}

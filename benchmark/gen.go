package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
)

// The benchmark owns its data: it never imports internal/datagen, so a
// later change to that package cannot move the inputs between a parent
// commit and its child. The seed is the generator's only input; the
// program under test sees only the CSV bytes.

// spec describes one synthetic dataset over three-letter title prefixes.
type spec struct {
	name string
	// base is the number of entities before duplicates are planted;
	// blocks the number of distinct title prefixes they spread over.
	base, blocks int
	// headFrac pins the largest block to this share of the base
	// entities and gives the tail Zipf(alpha) sizes. Zero spreads the
	// base entities evenly over all blocks.
	headFrac, alpha float64
	// dupRate is the share of planted near-duplicates added on top.
	dupRate float64
}

// The two datasets. skew follows the paper's DS1 profile: 4.5 % of the
// entities in one block is 71 % of the pairs. flat has the same order
// of records but forty times fewer pairs, so the engine and not the
// kernel does the work.
var (
	skewSpec = spec{name: "skew", base: 114000, blocks: 2375, headFrac: 0.045, alpha: 0.5, dupRate: 0.04}
	flatSpec = spec{name: "flat", base: 120000, blocks: 26 * 26 * 26, dupRate: 0.10}
)

// shrink scales a spec down for -smoke; the shape survives.
func (s spec) shrink(div int) spec {
	s.base /= div
	s.blocks = max(20, s.blocks/div)
	return s
}

// record is one generated entity.
type record struct{ id, title string }

// planted is one injected near-duplicate and the entity it was copied from.
type planted struct{ base, dup string }

// dataset is a generated input with everything the checks need to know
// about it.
type dataset struct {
	name    string
	records []record
	planted []planted
	csv     []byte
	titles  map[string]string // id → title
	census  census
}

// census holds the exact facts every run over the dataset must agree with.
type census struct {
	entities int
	// blocks maps blocking key → block size.
	blocks map[string]int
	// pairs is Σ n(n−1)/2 over the blocks: the candidate-pair count.
	pairs        int64
	largestBlock int
	// largestPairShare is the largest block's share of pairs.
	largestPairShare float64
	// mustMatch lists the planted pairs whose true similarity reaches
	// the threshold: each must appear in every output.
	mustMatch []planted
}

const letters = "abcdefghijklmnopqrstuvwxyz"

// blockKey is the benchmark's own reading of "-prefix 3": generated
// titles are lowercase ASCII, so the key is the first three bytes.
func blockKey(title string) string {
	if len(title) < prefixLen {
		return title
	}
	return title[:prefixLen]
}

// generate builds the dataset for a seed. The same seed and spec give
// byte-identical CSV.
func generate(s spec, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	prefixes := make([]string, 0, 26*26*26)
	for a := 0; a < 26; a++ {
		for b := 0; b < 26; b++ {
			for c := 0; c < 26; c++ {
				prefixes = append(prefixes, string([]byte{letters[a], letters[b], letters[c]}))
			}
		}
	}
	// Block sizes must not follow the lexicographic order of the keys.
	rng.Shuffle(len(prefixes), func(i, j int) { prefixes[i], prefixes[j] = prefixes[j], prefixes[i] })

	d := &dataset{name: s.name}
	for k, size := range blockSizes(s) {
		for i := 0; i < size; i++ {
			d.records = append(d.records, record{
				id:    fmt.Sprintf("e%07d", len(d.records)),
				title: prefixes[k] + titleTail(rng),
			})
		}
	}
	dups := int(float64(s.base) * s.dupRate)
	for i := 0; i < dups; i++ {
		b := d.records[rng.Intn(s.base)]
		dup := record{id: fmt.Sprintf("d%07d", i), title: perturb(rng, b.title)}
		d.records = append(d.records, dup)
		d.planted = append(d.planted, planted{base: b.id, dup: dup.id})
	}
	// File order is independent of the blocking key, so the round-robin
	// input partitions each see every block.
	rng.Shuffle(len(d.records), func(i, j int) { d.records[i], d.records[j] = d.records[j], d.records[i] })

	var buf bytes.Buffer
	buf.WriteString("id,title\n")
	d.titles = make(map[string]string, len(d.records))
	for _, r := range d.records {
		// Titles are [a-z ]+ and ids [a-z0-9]+: no CSV quoting needed.
		buf.WriteString(r.id)
		buf.WriteByte(',')
		buf.WriteString(r.title)
		buf.WriteByte('\n')
		d.titles[r.id] = r.title
	}
	d.csv = buf.Bytes()
	d.census = takeCensus(d)
	return d
}

// blockSizes returns the base-entity count of each block, summing to
// s.base exactly.
func blockSizes(s spec) []int {
	sizes := make([]int, s.blocks)
	if s.headFrac == 0 {
		for k := range sizes {
			sizes[k] = s.base / s.blocks
			if k < s.base%s.blocks {
				sizes[k]++
			}
		}
		return sizes
	}
	sizes[0] = int(float64(s.base) * s.headFrac)
	rest := s.base - sizes[0]
	weights := make([]float64, s.blocks)
	var total float64
	for k := 1; k < s.blocks; k++ {
		weights[k] = math.Pow(float64(k), -s.alpha)
		total += weights[k]
	}
	assigned := 0
	for k := 1; k < s.blocks; k++ {
		sizes[k] = max(1, int(float64(rest)*weights[k]/total))
		assigned += sizes[k]
	}
	// Hand the rounding remainder to the front of the tail, one each.
	for k := 1; assigned < rest; k = k%(s.blocks-1) + 1 {
		sizes[k]++
		assigned++
	}
	for k := 1; assigned > rest; k = k%(s.blocks-1) + 1 {
		if sizes[k] > 1 {
			sizes[k]--
			assigned--
		}
	}
	return sizes
}

// titleTail completes the first word after the prefix and adds two to
// five more words.
func titleTail(rng *rand.Rand) string {
	var b []byte
	for i, n := 0, rng.Intn(5); i < n; i++ {
		b = append(b, letters[rng.Intn(26)])
	}
	for w, words := 0, 2+rng.Intn(4); w < words; w++ {
		b = append(b, ' ')
		for i, n := 0, 2+rng.Intn(7); i < n; i++ {
			b = append(b, letters[rng.Intn(26)])
		}
	}
	return string(b)
}

// perturb applies one or two single-character edits past the prefix, so
// the duplicate stays in its base's block.
func perturb(rng *rand.Rand, s string) string {
	b := []byte(s)
	for e, edits := 0, 1+rng.Intn(2); e < edits && len(b) > prefixLen+1; e++ {
		pos := prefixLen + rng.Intn(len(b)-prefixLen)
		switch rng.Intn(3) {
		case 0:
			b[pos] = letters[rng.Intn(26)]
		case 1:
			b = append(b[:pos], b[pos+1:]...)
		default:
			b = append(b[:pos], append([]byte{letters[rng.Intn(26)]}, b[pos:]...)...)
		}
	}
	return string(b)
}

// takeCensus counts blocks and candidate pairs and decides which
// planted duplicates a correct run must report.
func takeCensus(d *dataset) census {
	c := census{entities: len(d.records), blocks: make(map[string]int)}
	for _, r := range d.records {
		c.blocks[blockKey(r.title)]++
	}
	var largestPairs int64
	for _, n := range c.blocks {
		p := int64(n) * int64(n-1) / 2
		c.pairs += p
		if n > c.largestBlock {
			c.largestBlock, largestPairs = n, p
		}
	}
	if c.pairs > 0 {
		c.largestPairShare = float64(largestPairs) / float64(c.pairs)
	}
	for _, p := range d.planted {
		if similarity(d.titles[p.base], d.titles[p.dup]) >= threshold {
			c.mustMatch = append(c.mustMatch, p)
		}
	}
	return c
}

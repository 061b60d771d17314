// Package match provides ready-made prepared matchers bridging the
// similarity kernels to the core.PreparedMatcher interface. Each matcher
// derives a similarity.Prepared form of one entity attribute exactly
// once per reduce-group membership; the per-pair hot path then runs on
// cached runes, token sets, and n-gram profiles and allocates nothing in
// steady state.
//
// Every constructor returns a core.PreparedMatcher; paths that only
// accept a plain core.Matcher (serial references, custom strategies)
// can wrap it with core.PlainMatcher for identical decisions at the
// per-pair preparation cost.
//
// All matchers draw their prepared forms from similarity's free list
// and implement core.PreparedReleaser, so every prepared entity is
// recycled once its reduce group is finished — the steady-state
// matching pipeline allocates no prepared forms at all. EditDistance is
// also a core.BlockMatcher: the strategy reducers run it a group at a
// time on a pooled similarity.LevBlock instead of pair by pair.
package match

import (
	"sync"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/similarity"
)

// EditDistance matches two entities when the normalized Levenshtein
// similarity of their attr values reaches threshold — the paper's match
// rule (threshold 0.8). The kernel rejects clearly dissimilar pairs with
// length and bag-distance pre-filters before running the exact
// bit-parallel distance.
func EditDistance(attr string, threshold float64) core.PreparedMatcher {
	return editDistance{attr: attr, th: similarity.NewThresholder(threshold)}
}

type editDistance struct {
	attr string
	th   *similarity.Thresholder
}

func (m editDistance) Prepare(e entity.Entity) core.PreparedEntity {
	return similarity.PreparePooled(e.Attr(m.attr))
}

// ReleasePrepared implements core.PreparedReleaser.
func (editDistance) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m editDistance) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	return m.th.Match(a.(*similarity.Prepared), b.(*similarity.Prepared))
}

// editBlock is EditDistance's core.Block: a LevBlock over the attr
// values of the group's entities.
type editBlock struct {
	similarity.LevBlock
	attr string
}

// editBlockPool is the process-wide free list of edit-distance blocks.
// A block's row arrays replace the per-entity Prepared of every ASCII
// row, and one block at a time serves each running reducer, so the pool
// holds about as many blocks as reduce tasks run concurrently.
var editBlockPool = sync.Pool{New: func() any { return new(editBlock) }}

// AcquireBlock implements core.BlockMatcher.
func (m editDistance) AcquireBlock() core.Block {
	b := editBlockPool.Get().(*editBlock)
	b.attr = m.attr
	b.Use(m.th)
	return b
}

func (b *editBlock) Probe(e entity.Entity, lo, hi int, keep bool) ([]int32, []float64) {
	return b.LevBlock.Probe(e.Attr(b.attr), lo, hi, keep)
}

// Release empties the block — the external dataflow's values alias
// ~32KB decode blocks, which a stale row would pin — and returns it to
// the free list.
func (b *editBlock) Release() {
	b.Reset()
	editBlockPool.Put(b)
}

// TokenJaccard matches two entities when the Jaccard coefficient of the
// lowercase whitespace token sets of their attr values reaches
// threshold.
func TokenJaccard(attr string, threshold float64) core.PreparedMatcher {
	return tokenJaccard{attr: attr, threshold: threshold}
}

type tokenJaccard struct {
	attr      string
	threshold float64
}

func (m tokenJaccard) Prepare(e entity.Entity) core.PreparedEntity {
	p := similarity.PreparePooled(e.Attr(m.attr))
	p.Tokens() // materialize now: comparisons stay read-only
	return p
}

// ReleasePrepared implements core.PreparedReleaser.
func (tokenJaccard) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m tokenJaccard) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	sim := similarity.TokenJaccardPrepared(a.(*similarity.Prepared), b.(*similarity.Prepared))
	return sim, sim >= m.threshold
}

// NGramJaccard matches two entities when the multiset Jaccard
// coefficient of the rune n-gram profiles of their attr values reaches
// threshold.
func NGramJaccard(attr string, n int, threshold float64) core.PreparedMatcher {
	if n <= 0 {
		panic("match: NGramJaccard requires n > 0")
	}
	return ngramJaccard{attr: attr, n: n, threshold: threshold}
}

type ngramJaccard struct {
	attr      string
	n         int
	threshold float64
}

func (m ngramJaccard) Prepare(e entity.Entity) core.PreparedEntity {
	p := similarity.PreparePooled(e.Attr(m.attr))
	p.NGramProfile(m.n) // materialize now: comparisons stay read-only
	return p
}

// ReleasePrepared implements core.PreparedReleaser.
func (ngramJaccard) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m ngramJaccard) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	sim := similarity.JaccardNGramPrepared(a.(*similarity.Prepared), b.(*similarity.Prepared), m.n)
	return sim, sim >= m.threshold
}

// releasePrepared returns a prepared form to similarity's free list.
func releasePrepared(p core.PreparedEntity) {
	if sp, ok := p.(*similarity.Prepared); ok {
		sp.Release()
	}
}

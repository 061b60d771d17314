// Package match provides the paper's matcher: EditDistance bridges the
// similarity kernels to the core.PreparedMatcher interface. It derives a
// similarity.Prepared form of one entity attribute exactly once per
// reduce-group membership; the per-pair hot path then runs on the cached
// forms and allocates nothing in steady state.
//
// Paths that only accept a plain core.Matcher (serial references, custom
// strategies) can wrap it with core.PlainMatcher for identical decisions
// at the per-pair preparation cost.
//
// The prepared forms come from similarity's free list, and EditDistance
// implements core.PreparedReleaser, so every prepared entity is recycled
// once its reduce group is finished. EditDistance is also a
// core.BlockMatcher: the strategy reducers run it a group at a time on a
// pooled similarity.LevBlock instead of pair by pair.
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
func (editDistance) ReleasePrepared(p core.PreparedEntity) { p.(*similarity.Prepared).Release() }

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

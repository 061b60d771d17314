// Package match provides the paper's matcher: EditDistance is a
// core.Matcher whose block is a pooled similarity.LevBlock over the
// texts Job 2's rows carry. The strategy reducers decide a reduce group
// a column at a time through it instead of pair by pair; its decisions
// and similarities are exactly those of the rune-DP reference,
// similarity.LevenshteinSimilarity, and a steady-state group allocates
// nothing.
package match

import (
	"sync"

	"repro/internal/core"
	"repro/internal/similarity"
)

// EditDistance matches two entities when the normalized Levenshtein
// similarity of their texts reaches threshold — the paper's match rule
// (threshold 0.8). The kernel rejects clearly dissimilar pairs with
// length and bag-distance pre-filters before running the exact
// bit-parallel distance.
//
// The texts are those of the attribute Job 2 matches on, er.Config.Attr,
// which bdm.Annotate puts in every row; attr is unused. The frozen
// benchmark harness (benchmark/trace.go) still passes it, so the
// parameter stays until that harness retires (ROADMAP item 1d), like
// the aliases at the end of core.go.
func EditDistance(attr string, threshold float64) core.Matcher {
	return editDistance{th: similarity.NewThresholder(threshold)}
}

type editDistance struct {
	th *similarity.Thresholder
}

// editBlock is EditDistance's core.Block: a LevBlock over the texts of
// the group's rows, whose Probe it is.
type editBlock struct {
	similarity.LevBlock
}

// editBlockPool is the process-wide free list of edit-distance blocks.
// A block's row arrays replace the per-entity Prepared of every ASCII
// row, and one block at a time serves each running reducer, so the pool
// holds about as many blocks as reduce tasks run concurrently.
var editBlockPool = sync.Pool{New: func() any { return new(editBlock) }}

// AcquireBlock implements core.Matcher.
func (m editDistance) AcquireBlock() core.Block {
	b := editBlockPool.Get().(*editBlock)
	b.Use(m.th)
	return b
}

// Release empties the block — the external dataflow's values alias
// ~32KB decode blocks, which a stale row would pin — and returns it to
// the free list.
func (b *editBlock) Release() {
	b.Reset()
	editBlockPool.Put(b)
}

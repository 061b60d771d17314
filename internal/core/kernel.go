package core

import (
	"slices"
	"sync"

	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Block is the prepared form of one reduce group: the reducers of all
// three strategies load the texts of a group's rows into a block and
// decide each arriving text against every row loaded so far in one
// call. match.EditDistance runs its filter chain column-wise over a
// structure-of-arrays block; a PairFunc's block loops its per-pair call.
type Block interface {
	// Probe decides text against every row and returns the matching
	// rows in ascending order with their similarities. With keep, text
	// then becomes the block's next row. The returned slices belong to
	// the block and are reused by the next call. Decisions and
	// similarities must be exactly those of the matcher's pair-by-pair
	// reference (for match.EditDistance, the rune DP,
	// similarity.LevenshteinSimilarity).
	Probe(text string, keep bool) (rows []int32, sims []float64)
	// Add makes text the block's next row without deciding it.
	Add(text string)
	// Release ends the group: the block drops every reference to the
	// group's texts and must not be used again.
	Release()
}

// group is the single reduce-side comparison path: a reducer opens it
// per key group with begin, feeds every value through probe, and closes
// it with end. It owns the counter and the emits, so a reducer only
// states which rows each entity meets. With no matcher there is no
// block and a probe is one counter add: nothing happens per pair.
type group struct {
	m     Matcher  // nil counts only
	block Block    // the open group's block; nil when counting only
	ids   []string // row → entity ID, for the emits
	ends  byte     // what touch read, kept so the reads stay
}

// touch reads the first and last byte of every value's text before a
// group's probes: the loads do not depend on each other, so their cache
// misses overlap here instead of stalling the block's preparation of
// each text in turn (a BlockSplit or PairRange key is exact, so nothing
// else reads a text before its probe). Counting only reads no text.
func touch[K any](g *group, values []mapreduce.Rec[K, entity.Row]) {
	if g.m == nil {
		return
	}
	var ends byte
	for i := range values {
		if t := values[i].Value.Text; t != "" {
			ends += t[0] + t[len(t)-1]
		}
	}
	g.ends = ends
}

// begin opens a group of at most n rows.
func (g *group) begin(n int) {
	g.ids = slices.Grow(g.ids[:0], n)
	if g.m != nil {
		g.block = g.m.AcquireBlock()
	}
}

// len returns the number of rows loaded so far.
func (g *group) len() int { return len(g.ids) }

// probe compares row e against rows [lo, hi), counting hi-lo
// comparisons and emitting each match in ascending row order — the
// order of the reducers' former inner loops. With keep, e becomes the
// next row. It is the one place a row range exists: the block decides e
// against every loaded row, and the hits outside [lo, hi) — at most
// PairRange's two end rows — are dropped here.
func (g *group) probe(ctx *matchCtx, e entity.Row, lo, hi int, keep bool) {
	ctx.Inc(ComparisonsCounter, int64(hi-lo))
	switch {
	case g.block == nil:
	case lo < hi:
		rows, sims := g.block.Probe(e.Text, keep)
		for i, row := range rows {
			if lo <= int(row) && int(row) < hi {
				ctx.Emit(MatchOutput{Key: NewMatchPair(g.ids[row], e.ID), Value: sims[i]})
			}
		}
	case keep:
		g.block.Add(e.Text)
	}
	if keep {
		g.ids = append(g.ids, e.ID)
	}
}

func (g *group) end() {
	if g.block != nil {
		g.block.Release()
		g.block = nil
	}
}

// PairFunc is a Matcher that compares two texts at a time — the match
// attribute's values of two entities — and reports their similarity and
// whether they match. It must be safe for concurrent use (pure
// functions, the common case, trivially are). A nil PairFunc counts
// only, like a nil Matcher.
type PairFunc func(a, b string) (float64, bool)

// AcquireBlock implements Matcher with a pooled block that calls f once
// per pair.
func (f PairFunc) AcquireBlock() Block {
	if f == nil {
		return nil
	}
	b := plainBlockPool.Get().(*plainBlock)
	b.match = f
	return b
}

// plainBlockPool is the process-wide free list of PairFunc blocks; one
// block at a time serves each running reducer.
var plainBlockPool = sync.Pool{New: func() any { return new(plainBlock) }}

// plainBlock is a PairFunc's Block: the group's texts as rows.
type plainBlock struct {
	match PairFunc
	texts []string
	rows  []int32
	sims  []float64
}

func (b *plainBlock) Probe(text string, keep bool) ([]int32, []float64) {
	b.rows, b.sims = b.rows[:0], b.sims[:0]
	for i, row := range b.texts {
		if sim, ok := b.match(row, text); ok {
			b.rows = append(b.rows, int32(i))
			b.sims = append(b.sims, sim)
		}
	}
	if keep {
		b.Add(text)
	}
	return b.rows, b.sims
}

func (b *plainBlock) Add(text string) { b.texts = append(b.texts, text) }

// Release empties the block — the external dataflow's texts alias
// ~32KB decode blocks, which a stale row would pin — and returns it to
// the free list.
func (b *plainBlock) Release() {
	clear(b.texts)
	b.texts, b.match = b.texts[:0], nil
	plainBlockPool.Put(b)
}

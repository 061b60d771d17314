package core

import (
	"slices"

	"repro/internal/entity"
)

// Block is the prepared form of one reduce group: the reducers of all
// three strategies load a group's entities into a block as rows and
// decide each arriving entity against a contiguous row range in one
// call. A matcher that implements BlockMatcher supplies its own block
// (match.EditDistance runs its filter chain column-wise over a
// structure-of-arrays block); every other matcher runs through an
// adapter that loops its per-pair call.
type Block interface {
	// Probe decides e against rows [lo, hi) and returns the matching
	// rows in ascending order with their similarities. With keep, e then
	// becomes the block's next row; an empty range just loads e. The
	// returned slices belong to the block and are reused by the next
	// call. Decisions and similarities must be exactly those of the
	// matcher's per-pair form.
	Probe(e entity.Entity, lo, hi int, keep bool) (rows []int32, sims []float64)
	// Release ends the group: the block drops every reference to the
	// group's entities and must not be used again.
	Release()
}

// BlockMatcher is the optional extension of PreparedMatcher for matchers
// with a native Block. AcquireBlock is called once per reduce group,
// from the group's goroutine, and the block is Released when the group
// is finished; implementations recycle storage between the two.
type BlockMatcher interface {
	PreparedMatcher
	AcquireBlock() Block
}

// matchKernel carries whichever matcher form a job was built with. At
// most one of match/pm is set; both nil means "count comparisons
// without comparing" (the nil-Matcher contract).
type matchKernel struct {
	match Matcher
	pm    PreparedMatcher
}

// newGroup returns one reducer's comparison state.
func (k matchKernel) newGroup() *group {
	g := &group{}
	switch pm := k.pm.(type) {
	case nil:
		if k.match != nil {
			g.own = &plainBlock{match: k.match}
		}
	case BlockMatcher:
		g.bm = pm
	default:
		rel, _ := pm.(PreparedReleaser)
		g.own = &preparedBlock{pm: pm, rel: rel}
	}
	return g
}

// group is the single reduce-side comparison path: a reducer opens it
// per key group with begin, feeds every value through probe, and closes
// it with end. It owns the counter and the emits, so a reducer only
// states which rows each entity meets. With no matcher there is no
// block and a probe is one counter add: nothing happens per pair.
type group struct {
	bm    BlockMatcher // native blocks, acquired per group
	own   Block        // adapter block, reused across groups
	block Block        // the open group's block; nil when counting only
	ids   []string     // row → entity ID, for the emits
}

// begin opens a group of at most n rows.
func (g *group) begin(n int) {
	g.ids = slices.Grow(g.ids[:0], n)
	g.block = g.own
	if g.bm != nil {
		g.block = g.bm.AcquireBlock()
	}
}

// len returns the number of rows loaded so far.
func (g *group) len() int { return len(g.ids) }

// probe compares e against rows [lo, hi), counting hi-lo comparisons
// and emitting each match in ascending row order — the order of the
// reducers' former inner loops. With keep, e becomes the next row.
func (g *group) probe(ctx *matchCtx, e entity.Entity, lo, hi int, keep bool) {
	ctx.Inc(ComparisonsCounter, int64(hi-lo))
	if g.block != nil {
		rows, sims := g.block.Probe(e, lo, hi, keep)
		for i, row := range rows {
			ctx.Emit(MatchOutput{Key: NewMatchPair(g.ids[row], e.ID), Value: sims[i]})
		}
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

// plainBlock adapts a plain Matcher to Block.
type plainBlock struct {
	match Matcher
	ents  []entity.Entity
	hits
}

func (b *plainBlock) Probe(e entity.Entity, lo, hi int, keep bool) ([]int32, []float64) {
	b.hits.reset()
	for i, row := range b.ents[lo:hi] {
		if sim, ok := b.match(row, e); ok {
			b.hit(lo+i, sim)
		}
	}
	if keep {
		b.ents = append(b.ents, e)
	}
	return b.rows, b.sims
}

func (b *plainBlock) Release() {
	clear(b.ents)
	b.ents = b.ents[:0]
}

// preparedBlock adapts a per-pair PreparedMatcher to Block: every entity
// is prepared once, rows are handed back to the matcher's free list (if
// it has one) when the group ends, a probe that is not kept at once.
type preparedBlock struct {
	pm   PreparedMatcher
	rel  PreparedReleaser
	prep []PreparedEntity
	hits
}

func (b *preparedBlock) Probe(e entity.Entity, lo, hi int, keep bool) ([]int32, []float64) {
	b.hits.reset()
	p := b.pm.Prepare(e)
	for i, row := range b.prep[lo:hi] {
		if sim, ok := b.pm.MatchPrepared(row, p); ok {
			b.hit(lo+i, sim)
		}
	}
	if keep {
		b.prep = append(b.prep, p)
	} else if b.rel != nil {
		b.rel.ReleasePrepared(p)
	}
	return b.rows, b.sims
}

func (b *preparedBlock) Release() {
	if b.rel != nil {
		for _, p := range b.prep {
			b.rel.ReleasePrepared(p)
		}
	}
	clear(b.prep)
	b.prep = b.prep[:0]
}

// hits is the reusable result of an adapter's Probe.
type hits struct {
	rows []int32
	sims []float64
}

func (h *hits) reset() { h.rows, h.sims = h.rows[:0], h.sims[:0] }

func (h *hits) hit(row int, sim float64) {
	h.rows = append(h.rows, int32(row))
	h.sims = append(h.sims, sim)
}

// Package sn implements MapReduce-based Sorted Neighborhood (SN)
// blocking, the alternative approach of Kolb et al., "Multi-pass Sorted
// Neighborhood Blocking with MapReduce" (CSRD 2011) that the paper's
// related-work section contrasts with BlockSplit/PairRange: instead of
// comparing everything within equal-key blocks, SN sorts all entities by
// a sorting key and compares each entity with its w−1 predecessors in
// the sorted order. By design SN is far less vulnerable to skew — every
// entity participates in at most 2(w−1) comparisons — at the price of
// missing duplicates that sort far apart.
//
// The MR realization follows the replication ("JobSN") scheme:
//
//  1. A distribution job counts entities per sorting key (reusing the
//     BDM machinery's counting pattern) so the driver can cut the key
//     space into r contiguous ranges of near-equal entity counts,
//     always on key-group boundaries.
//  2. The matching job range-partitions entities by sorting key; each
//     reduce task sorts its range by (key, ID) and slides the window,
//     side-emitting its first and last w−1 entities.
//  3. Boundary stitching compares cross-range pairs whose rank distance
//     is below w, using the side-emitted fringes of adjacent ranges.
//
// The result is exactly the serial SN result over the canonical
// (key, ID) total order; property tests enforce this.
package sn

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// KeyFunc derives the sorting key from an entity attribute value.
type KeyFunc func(attrValue string) string

// Config configures a sorted-neighborhood run.
type Config struct {
	// RunOptions is the execution plumbing (engine, parallelism,
	// out-of-core spilling, match sink) shared with the er pipelines.
	// A configured Sink receives the window and boundary matches as a
	// stream (raw emissions; Result.Matches stays nil).
	er.RunOptions

	// Attr is the attribute the sorting key is derived from.
	Attr string
	// Key derives the sorting key (identity on the attribute is common).
	Key KeyFunc
	// Window is w: each entity is compared with its w−1 predecessors.
	Window int
	// R is the number of reduce tasks of the matching job.
	R int
	// Matcher decides matches; nil counts comparisons only.
	Matcher core.Matcher
	// PreparedMatcher, when non-nil, takes precedence over Matcher and
	// drives the prepare-once comparison kernel: the window reducer
	// prepares each entity exactly once when it enters the sliding
	// buffer (instead of re-deriving both sides on every of its up to
	// 2(w−1) comparisons), and the boundary stitching prepares each
	// fringe entity once. Results are identical to the plain path.
	PreparedMatcher core.PreparedMatcher
}

func (c *Config) validate() error {
	switch {
	case c.Key == nil:
		return fmt.Errorf("sn: Config.Key is required")
	case c.Window < 2:
		return fmt.Errorf("sn: Config.Window must be >= 2, got %d", c.Window)
	case c.R <= 0:
		return fmt.Errorf("sn: Config.R must be > 0, got %d", c.R)
	}
	return nil
}

// Result is the outcome of a sorted-neighborhood run.
type Result struct {
	Matches     []core.MatchPair
	Comparisons int64
	// RangeBounds holds the key-range boundaries the driver derived
	// from the distribution job (len R+1 conceptually; stored as the
	// first key of each range after the initial one).
	RangeBounds []string
	// MatchResult exposes the matching job's per-task metrics.
	MatchResult *mapreduce.Result[entity.Entity, snOut]
	// BoundaryComparisons counts the cross-range stitching comparisons.
	BoundaryComparisons int64
}

// partitionInput converts entity partitions into the typed job input.
func partitionInput(parts entity.Partitions) [][]entity.Entity {
	input := make([][]entity.Entity, len(parts))
	for i, p := range parts {
		input[i] = p
	}
	return input
}

// snKey is the matching job's composite key: range ‖ sort key ‖ ID.
// Partitioning uses Range; sorting uses the entire key (yielding the
// canonical (key, ID) order within a range); grouping uses Range so one
// reduce call sees its whole range in order.
type snKey struct {
	Range int
	Key   string
	ID    string
}

func compareSNKeys(a, b snKey) int {
	if c := cmp.Compare(a.Range, b.Range); c != 0 {
		return c
	}
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

func groupSNKeys(a, b snKey) int {
	return cmp.Compare(a.Range, b.Range)
}

// snKeyCoding packs range ‖ first 12 bytes of the sort key: the range
// occupies the top 32 bits exactly (GroupBits), the 12-byte key prefix
// decides most of the rest, ties fall back to the full comparator.
func snKeyCoding(r int) mapreduce.KeyCoding[snKey] {
	if r > 1<<31 {
		return mapreduce.KeyCoding[snKey]{}
	}
	return mapreduce.KeyCoding[snKey]{
		Encode: func(k snKey) mapreduce.Code {
			p := mapreduce.StringPrefixCode(k.Key)
			return mapreduce.Code{
				Hi: uint64(uint32(k.Range))<<32 | p.Hi>>32,
				Lo: p.Hi<<32 | p.Lo>>32,
			}
		},
		GroupBits: 32,
	}
}

// snOut is one matching-job output record: either a window match (with
// its similarity) or a side-emitted boundary fringe entity.
type snOut struct {
	match  core.MatchPair
	sim    float64
	fringe *fringe
}

// fringe tags a side-emitted boundary entity.
type fringe struct {
	Range int
	// Head is true for the first w−1 entities of the range, false for
	// the last w−1.
	Head bool
	// Pos is the entity's rank from the relevant end (0 = first or
	// last entity of the range, respectively).
	Pos int
	E   entity.Entity
}

// RunPipeline executes the full sorted-neighborhood workflow over the
// source's partitions. Cancelling ctx stops the run between engine
// tasks; a configured Sink streams the window and boundary matches
// instead of collecting them into Result.Matches.
func RunPipeline(ctx context.Context, src er.Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}

	// ---- Phase 1: key distribution (the SN analogue of the BDM). ----
	counts := make(map[string]int)
	for _, part := range parts {
		for _, e := range part {
			counts[cfg.Key(e.Attr(cfg.Attr))]++
		}
	}
	keys := make([]string, 0, len(counts))
	total := 0
	for k, c := range counts {
		keys = append(keys, k)
		total += c
	}
	sort.Strings(keys)
	bounds := rangeBounds(keys, counts, total, cfg.R)

	// ---- Phase 2: the matching job. ----
	job := &mapreduce.Job[entity.Entity, snKey, entity.Entity, snOut]{
		Name:           "sorted-neighborhood",
		NumReduceTasks: cfg.R,
		NewMapper: func() mapreduce.Mapper[entity.Entity, snKey, entity.Entity] {
			return &snMapper{cfg: &cfg, bounds: bounds}
		},
		NewReducer: func() mapreduce.Reducer[snKey, entity.Entity, snOut] {
			return newSNReducer[snKey](&cfg)
		},
		Partition: func(key snKey, r int) int { return key.Range % r },
		Compare:   compareSNKeys,
		Group:     groupSNKeys,
		Coding:    snKeyCoding(cfg.R),
	}
	out := &Result{RangeBounds: bounds}
	if err := runSNMatching(ctx, job, partitionInput(parts), cfg, out); err != nil {
		return nil, fmt.Errorf("sn: matching job: %w", err)
	}
	return out, nil
}

// runSNMatching executes an SN matching job (key- or rank-partitioned —
// both share the snOut output shape) and assembles the Result: window
// matches are deduplicated into out.Matches, or streamed raw to the
// configured sink; the O(r·w) boundary fringes are always collected
// in-driver and feed phase 3, the boundary stitching, whose matches
// follow the same path.
func runSNMatching(ctx context.Context, job mapreduce.JobRunner[entity.Entity, snOut], input [][]entity.Entity, cfg Config, out *Result) error {
	eng := cfg.ResolveEngine()
	sink := cfg.Sink
	var fringes []fringe

	if sink == nil {
		res, err := job.RunContext(ctx, eng, input)
		if err != nil {
			return err
		}
		out.MatchResult = res
		seen := make(map[core.MatchPair]bool)
		for _, o := range res.Output {
			if o.fringe != nil {
				fringes = append(fringes, *o.fringe)
				continue
			}
			if !seen[o.match] {
				seen[o.match] = true
				out.Matches = append(out.Matches, o.match)
			}
		}
		out.Comparisons = res.Counter(core.ComparisonsCounter)
		stitched, comps := stitchBoundaries(fringes, cfg)
		out.BoundaryComparisons = comps
		out.Comparisons += comps
		for _, sp := range stitched {
			if !seen[sp.pair] {
				seen[sp.pair] = true
				out.Matches = append(out.Matches, sp.pair)
			}
		}
		er.SortMatches(out.Matches)
		return nil
	}

	// Streaming: window matches go straight to the sink (the engine
	// serializes emissions, so appending fringes here is race-free);
	// only the fringes are buffered for the stitching phase.
	res, err := job.RunStream(ctx, eng, input, func(o snOut) error {
		if o.fringe != nil {
			fringes = append(fringes, *o.fringe)
			return nil
		}
		return sink.Consume(o.match, o.sim)
	})
	if err != nil {
		return err
	}
	out.MatchResult = res
	out.Comparisons = res.Counter(core.ComparisonsCounter)
	stitched, comps := stitchBoundaries(fringes, cfg)
	out.BoundaryComparisons = comps
	out.Comparisons += comps
	for _, sp := range stitched {
		if err := sink.Consume(sp.pair, sp.sim); err != nil {
			return err
		}
	}
	return sink.Flush()
}

// rangeBounds cuts the sorted key groups into r contiguous ranges of
// near-equal entity counts. The returned slice holds, for ranges
// 1..r−1, the first key of the range; an entity's range is the number
// of bounds that are <= its key.
func rangeBounds(keys []string, counts map[string]int, total, r int) []string {
	if r <= 1 || len(keys) == 0 {
		return nil
	}
	per := (total + r - 1) / r
	bounds := make([]string, 0, r-1)
	acc := 0
	for _, k := range keys {
		if acc >= per*(len(bounds)+1) && len(bounds) < r-1 {
			bounds = append(bounds, k)
		}
		acc += counts[k]
	}
	return bounds
}

// rangeOf returns the range index of a sorting key given the bounds.
func rangeOf(key string, bounds []string) int {
	// First bound greater than key ends the search.
	return sort.SearchStrings(bounds, key+"\x00")
}

type snMapper struct {
	cfg    *Config
	bounds []string
}

func (m *snMapper) Configure(_, _, _ int) {}

func (m *snMapper) Map(ctx *mapreduce.MapContext[entity.Entity, snKey, entity.Entity], e entity.Entity) {
	k := m.cfg.Key(e.Attr(m.cfg.Attr))
	ctx.Emit(snKey{Range: rangeOf(k, m.bounds), Key: k, ID: e.ID}, e)
}

// snReducer is the window reducer, generic over the composite key so
// the key-based (snKey) and rank-based (rankKey) variants share the
// sliding-window logic; both sort one whole range per reduce call, so
// the logic only depends on the value order.
type snReducer[K any] struct {
	window int
	match  core.Matcher
	pm     core.PreparedMatcher
	rel    core.PreparedReleaser
	task   int
	buffer []entity.Entity
	prep   []core.PreparedEntity
}

func newSNReducer[K any](cfg *Config) *snReducer[K] {
	r := &snReducer[K]{window: cfg.Window, match: cfg.Matcher, pm: cfg.PreparedMatcher}
	if rel, ok := cfg.PreparedMatcher.(core.PreparedReleaser); ok {
		r.rel = rel
	}
	return r
}

func (r *snReducer[K]) Configure(_, _, taskIndex int) { r.task = taskIndex }

func (r *snReducer[K]) release(p core.PreparedEntity) {
	if r.rel != nil {
		r.rel.ReleasePrepared(p)
	}
}

// Reduce receives one whole range in canonical order, slides the
// window, and emits the range's head and tail fringes for the boundary
// phase. Only the last w−1 seen entities are buffered — SN's
// constant-memory advantage over block-based matching. With a prepared
// matcher each entity is prepared exactly once, when it enters the
// window. The range index equals the reduce task index (both the
// key-based and the rank-based variant produce at most r ranges,
// partitioned by range).
func (r *snReducer[K]) Reduce(ctx *mapreduce.ReduceContext[snOut], _ K, values []mapreduce.Rec[K, entity.Entity]) {
	rg := r.task
	r.buffer, r.prep = r.buffer[:0], r.prep[:0]
	n := len(values)
	for i := range values {
		e := values[i].Value
		var pe core.PreparedEntity
		if r.pm != nil {
			pe = r.pm.Prepare(e)
		}
		for j, prev := range r.buffer {
			ctx.Inc(core.ComparisonsCounter, 1)
			switch {
			case r.pm != nil:
				if sim, ok := r.pm.MatchPrepared(r.prep[j], pe); ok {
					ctx.Emit(snOut{match: core.NewMatchPair(prev.ID, e.ID), sim: sim})
				}
			case r.match != nil:
				if sim, ok := r.match(prev, e); ok {
					ctx.Emit(snOut{match: core.NewMatchPair(prev.ID, e.ID), sim: sim})
				}
			}
		}
		if len(r.buffer) == r.window-1 {
			r.buffer = r.buffer[1:]
			if r.pm != nil {
				r.release(r.prep[0]) // evicted from the window: done for good
				r.prep = r.prep[1:]
			}
		}
		r.buffer = append(r.buffer, e)
		if r.pm != nil {
			r.prep = append(r.prep, pe)
		}

		// Fringes for boundary stitching.
		if i < r.window-1 {
			ctx.Emit(snOut{fringe: &fringe{Range: rg, Head: true, Pos: i, E: e}})
		}
		if n-1-i < r.window-1 {
			ctx.Emit(snOut{fringe: &fringe{Range: rg, Head: false, Pos: n - 1 - i, E: e}})
		}
	}
	for _, p := range r.prep {
		r.release(p)
	}
}

// scoredPair is a stitched boundary match with its similarity (streamed
// to the sink when one is installed).
type scoredPair struct {
	pair core.MatchPair
	sim  float64
}

// stitchBoundaries compares cross-range pairs with rank distance < w.
// It reconstructs the global order around each range boundary from the
// fringes: ...tail of range i (positions w−2..0), head of range i+1
// (positions 0..w−2)... and, when ranges are tiny, continues through
// subsequent heads/tails.
func stitchBoundaries(fringes []fringe, cfg Config) ([]scoredPair, int64) {
	// Order fringes into the global sequence: heads and tails of a
	// range interleave (a range shorter than w−1 contributes the same
	// entity to both its head and tail). Build per-range ordered entity
	// lists from the head fringe (which is the range's first min(n,w−1)
	// entities) and the tail fringe (last min(n,w−1)).
	heads := make(map[int][]entity.Entity)
	tails := make(map[int][]entity.Entity)
	maxRange := 0
	for _, f := range fringes {
		if f.Range > maxRange {
			maxRange = f.Range
		}
	}
	headPos := make(map[int]map[int]entity.Entity)
	tailPos := make(map[int]map[int]entity.Entity)
	for _, f := range fringes {
		m := headPos
		if !f.Head {
			m = tailPos
		}
		if m[f.Range] == nil {
			m[f.Range] = make(map[int]entity.Entity)
		}
		m[f.Range][f.Pos] = f.E
	}
	for rg, ps := range headPos {
		heads[rg] = orderedByPos(ps, false)
	}
	for rg, ps := range tailPos {
		tails[rg] = orderedByPos(ps, true) // tail Pos counts from the end
	}

	// With a prepared matcher, derive each fringe entity's comparison
	// form once up front; a fringe entity participates in up to w−1
	// cross-range comparisons.
	var prepHeads, prepTails map[int][]core.PreparedEntity
	if cfg.PreparedMatcher != nil {
		prepHeads = prepareFringes(heads, cfg.PreparedMatcher)
		prepTails = prepareFringes(tails, cfg.PreparedMatcher)
	}

	w := cfg.Window
	var pairs []scoredPair
	var comparisons int64
	seenPair := make(map[[2]string]bool)
	// For each boundary between range b and the ranges after it,
	// compare tail entities of b with head entities of following ranges
	// while the rank distance stays < w. Rank distance across the
	// boundary: (entities after x in range b) + (entities in skipped
	// whole ranges) + (rank of y in its range) + 1.
	for b := 0; b < maxRange; b++ {
		tail := tails[b]
		if len(tail) == 0 {
			continue
		}
		for ti := range tail {
			after := len(tail) - 1 - ti // entities after x within its fringe
			dist := after + 1
			for nb := b + 1; nb <= maxRange && dist < w; nb++ {
				head := heads[nb]
				for hi := 0; hi < len(head) && dist+hi < w; hi++ {
					x, y := tail[ti], head[hi]
					if x.ID == y.ID {
						continue
					}
					pk := [2]string{x.ID, y.ID}
					if seenPair[pk] {
						continue
					}
					seenPair[pk] = true
					comparisons++
					switch {
					case cfg.PreparedMatcher != nil:
						if sim, ok := cfg.PreparedMatcher.MatchPrepared(prepTails[b][ti], prepHeads[nb][hi]); ok {
							pairs = append(pairs, scoredPair{core.NewMatchPair(x.ID, y.ID), sim})
						}
					case cfg.Matcher != nil:
						if sim, ok := cfg.Matcher(x, y); ok {
							pairs = append(pairs, scoredPair{core.NewMatchPair(x.ID, y.ID), sim})
						}
					}
				}
				// Advance past range nb: all of its entities separate x
				// from range nb+1's head. The head fringe length equals
				// min(|range|, w−1); if the whole range is larger than
				// the fringe, the remaining distance certainly exceeds
				// the window, so the fringe length is a safe proxy.
				if len(head) >= w-1 {
					dist = w // terminate: a full window separates them
				} else {
					dist += len(head)
				}
			}
		}
	}
	if rel, ok := cfg.PreparedMatcher.(core.PreparedReleaser); ok {
		for _, ps := range prepHeads {
			for _, p := range ps {
				rel.ReleasePrepared(p)
			}
		}
		for _, ps := range prepTails {
			for _, p := range ps {
				rel.ReleasePrepared(p)
			}
		}
	}
	return pairs, comparisons
}

// prepareFringes derives the prepared form of every fringe entity, in
// the same per-range order as the entity lists.
func prepareFringes(lists map[int][]entity.Entity, pm core.PreparedMatcher) map[int][]core.PreparedEntity {
	out := make(map[int][]core.PreparedEntity, len(lists))
	for rg, es := range lists {
		ps := make([]core.PreparedEntity, len(es))
		for i, e := range es {
			ps[i] = pm.Prepare(e)
		}
		out[rg] = ps
	}
	return out
}

func orderedByPos(ps map[int]entity.Entity, reverse bool) []entity.Entity {
	idx := make([]int, 0, len(ps))
	for p := range ps {
		idx = append(idx, p)
	}
	sort.Ints(idx)
	out := make([]entity.Entity, len(idx))
	for i, p := range idx {
		if reverse {
			out[len(idx)-1-i] = ps[p]
		} else {
			out[i] = ps[p]
		}
	}
	return out
}

// Serial is the reference implementation: sort all entities by
// (key, ID) and compare each with its w−1 predecessors.
func Serial(entities []entity.Entity, attr string, key KeyFunc, window int, match core.Matcher) ([]core.MatchPair, int64) {
	type keyed struct {
		k string
		e entity.Entity
	}
	ks := make([]keyed, len(entities))
	for i, e := range entities {
		ks[i] = keyed{k: key(e.Attr(attr)), e: e}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		return strings.Compare(a.e.ID, b.e.ID)
	})
	var pairs []core.MatchPair
	var comparisons int64
	for i := range ks {
		lo := i - (window - 1)
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			comparisons++
			if match == nil {
				continue
			}
			if _, ok := match(ks[j].e, ks[i].e); ok {
				pairs = append(pairs, core.NewMatchPair(ks[j].e.ID, ks[i].e.ID))
			}
		}
	}
	er.SortMatches(pairs)
	return pairs, comparisons
}

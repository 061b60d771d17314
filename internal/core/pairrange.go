package core

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// PairRange implements the pair-based load balancing strategy of
// Section V. All P pairs across all blocks are enumerated globally
// (column-wise within a block, blocks concatenated in index order); the
// pair index space [0, P) is cut into r ranges of ceil(P/r) pairs, and
// range k is processed by reduce task k. Every entity is sent to each
// range that contains at least one of its pairs, annotated with its
// block-wise entity index so that the reduce function can recompute pair
// indexes locally.
//
// Over a two-source matrix (Appendix I-B) a block's pairs are its R×S
// cells, enumerated row-wise instead (see geometry); ranges, routing and
// the reducer are otherwise the same. Over a matrix with missing keys
// every keyed entity is also an entity of the ⊥ row, whose triangle is
// capped at its keyless entities' columns.
type PairRange struct{}

// Name implements Strategy.
func (PairRange) Name() string { return "PairRange" }

// NeedsBDM implements Strategy.
func (PairRange) NeedsBDM() bool { return true }

// PRKey is the composite map-output key: range index ‖ block index ‖
// entity index. Partitioning uses only Range; sorting uses the whole
// key; grouping uses (Range, Block) so one reduce call sees a block's
// relevant entities in ascending entity-index order. Range and Block
// are as narrow as Job's limits allow (keyLimits), so the key takes 16
// bytes.
type PRKey struct {
	Range int32
	Block int32
	Index int64
}

func (k PRKey) String() string { return fmt.Sprintf("%d.%d.%d", k.Range, k.Block, k.Index) }

func comparePRKeys(a, b PRKey) int {
	if c := cmp.Compare(a.Range, b.Range); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

func groupPRKeys(a, b PRKey) int {
	if c := cmp.Compare(a.Range, b.Range); c != 0 {
		return c
	}
	return cmp.Compare(a.Block, b.Block)
}

// prKeyCoding packs a PRKey into an exact order-preserving code:
// range ‖ block in the high word, the entity index in the low word, each
// with its sign bit flipped (see bsKeyCoding). Grouping is on (range,
// block), i.e. exactly the high 64 bits.
var prKeyCoding = mapreduce.KeyCoding[PRKey]{
	Encode: func(k PRKey) mapreduce.Code {
		return mapreduce.Code{
			Hi: uint64(uint32(k.Range)^1<<31)<<32 | uint64(uint32(k.Block)^1<<31),
			Lo: uint64(k.Index) ^ 1<<63,
		}
	},
	Exact:     true,
	GroupBits: 64,
}

// Job implements Strategy (Algorithm 2). Input records must be the BDM
// job's input (block-id-annotated rows, bdm.Annotate).
func (PairRange) Job(x *bdm.Matrix, r int, match Matcher) (MatchJob, error) {
	if err := validateJobParams("PairRange", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRange requires a BDM")
	}
	if err := keyLimits("PairRange", x.NumBlocks(), x.NumPartitions(), r, math.MaxInt); err != nil {
		return nil, err
	}
	ranges := NewRanges(x.Pairs(), r)
	return &mapreduce.Job[AnnotatedEntity, PRKey, entity.Row, MatchOutput]{
		Name:           "pairrange",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, PRKey, entity.Row] {
			return &prMapper{x: x, ranges: ranges}
		},
		NewReducer: func() mapreduce.Reducer[PRKey, entity.Row, MatchOutput] {
			return &prReducer{x: x, ranges: ranges, group: &group{m: match}}
		},
		Partition: func(key PRKey, r int) int { return int(key.Range) % r },
		Compare:   comparePRKeys,
		Group:     groupPRKeys,
		Coding:    prKeyCoding,
	}, nil
}

type prMapper struct {
	x      *bdm.Matrix
	ranges Ranges
	// entityIndex[k] is the index the next block-k entity of this
	// partition will receive (Algorithm 2 lines 4-8): its partition's
	// base index in the block, then incremented per entity seen.
	entityIndex []int64
	// keyedIndex is the ⊥ row index of the partition's next keyed
	// entity.
	keyedIndex int64
	scratch    []int
}

func (mp *prMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: PairRange: job has %d map tasks but BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.entityIndex = make([]int64, mp.x.NumBlocks())
	for k := range mp.entityIndex {
		mp.entityIndex[k] = entityBase(mp.x, k, partitionIndex, false)
	}
	if mp.x.MissingKeys() {
		mp.keyedIndex = entityBase(mp.x, 0, partitionIndex, true)
	}
}

// Map implements Algorithm 2 lines 10-26: compute the entity's global
// block-wise index, find all ranges containing one of its pairs, and
// emit one annotated copy per relevant range — and the same again for a
// keyed entity's place in the ⊥ row.
func (mp *prMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, PRKey, entity.Row], rec AnnotatedEntity) {
	k := blockOf(mp.x, rec, "PairRange")
	mp.emit(ctx, k, mp.entityIndex[k], rec.Value)
	mp.entityIndex[k]++
	if k != 0 && mp.x.MissingKeys() {
		mp.emit(ctx, 0, mp.keyedIndex, rec.Value)
		mp.keyedIndex++
	}
}

// emit sends e, entity x of block k, to every range holding one of its
// pairs.
func (mp *prMapper) emit(ctx *mapreduce.MapContext[AnnotatedEntity, PRKey, entity.Row], k int, x int64, e entity.Row) {
	mp.scratch = mp.ranges.relevantRanges(geometryOf(mp.x, k), x, mp.x.PairOffset(k), mp.scratch)
	for _, rg := range mp.scratch {
		ctx.Emit(PRKey{Range: int32(rg), Block: int32(k), Index: x}, e)
	}
}

type prReducer struct {
	x      *bdm.Matrix
	ranges Ranges
	task   int
	*group
}

func (rd *prReducer) Configure(_, _, taskIndex int) { rd.task = taskIndex }

// Reduce implements Algorithm 2 lines 32-42: for one (range, block)
// group it receives the block's relevant entities in ascending index
// order — the index travels in each record's key — and compares exactly
// the candidate pairs (x1, x2), x1 < x2, whose pair index falls into
// this task's range.
//
// Deviation from the paper's listing: when a candidate pair's range
// exceeds the task's range, the listing returns from the whole reduce
// call. That would skip valid pairs — e.g. after (x1,x2) overshoots,
// (x1', x2+1) with x1' < x1 can still fall in range. Instead the
// task reads its share of the block once, as the share's corner cells
// (xa, ya) and (xb, yb): the share is the columns xa..xb, from (xa, ya)
// on and up to (xb, yb). An entity becomes a row iff it is one of those
// columns, so the rows are xa, xa+1, … in order, and a probe meets every
// row loaded before it but at most the two ends (corners.meets). The
// block decides the probe against all rows; group.probe drops a hit on
// an excluded end. Completeness is covered by property tests against
// brute force and serial matching.
func (rd *prReducer) Reduce(ctx *matchCtx, k PRKey, values []mapreduce.Rec[PRKey, entity.Row]) {
	g := geometryOf(rd.x, int(k.Block))
	lo, hi := rd.ranges.Bounds(rd.task)
	off := rd.x.PairOffset(int(k.Block))
	c := g.corners(max(lo, off)-off, min(hi, off+rd.x.BlockPairs(int(k.Block)))-off)
	touch(rd.group, values)
	rd.begin(len(values))
	for _, v := range values {
		first, end, keep := c.meets(g, v.Key.Index, rd.len())
		rd.probe(ctx, v.Value, first, end, keep)
	}
	rd.end()
}

// Plan implements Strategy. All quantities are exact and computed in
// O((b + r·m) log) time from the BDM, never touching pairs:
//
//   - reduce comparisons: range k processes exactly its pair-interval
//     size;
//   - reduce records: for each range and each block it overlaps, the
//     relevant entities form a union of at most four index intervals
//     (geometry.relevant);
//   - map emits: the per-partition share of those intervals — entities
//     of partition p hold the contiguous index interval
//     [entityBase(k,p), entityBase(k,p)+|Φk,p|) within block k, and in
//     a ⊥ row its keyed entities a second one after the keyless.
func (PairRange) Plan(x *bdm.Matrix, m, r int) (*Plan, error) {
	if err := validatePlanParams("PairRange", m, r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRange.Plan requires a BDM")
	}
	if x.NumPartitions() != m {
		return nil, fmt.Errorf("core: PairRange.Plan: BDM has %d partitions, want m=%d", x.NumPartitions(), m)
	}
	ranges := NewRanges(x.Pairs(), r)
	p := newPlan("PairRange", m, r)

	for pi := 0; pi < m; pi++ {
		for k := 0; k < x.NumBlocks(); k++ {
			p.MapRecords[pi] += int64(x.SizeIn(k, pi))
		}
	}

	// Walk blocks and ranges in tandem; both partition [0, P).
	k := 0
	for j := 0; j < r; j++ {
		lo, hi := ranges.Bounds(j)
		p.ReduceComparisons[j] = hi - lo
		if hi <= lo {
			continue
		}
		// Advance to the first block whose pair interval reaches lo.
		for k < x.NumBlocks() && x.PairOffset(k)+x.BlockPairs(k) <= lo {
			k++
		}
		for kk := k; kk < x.NumBlocks() && x.PairOffset(kk) < hi; kk++ {
			bLo, bHi := x.PairOffset(kk), x.PairOffset(kk)+x.BlockPairs(kk)
			if bHi <= bLo {
				continue
			}
			ivs := geometryOf(x, kk).relevant(max(lo, bLo)-bLo, min(hi, bHi)-bLo)
			p.ReduceRecords[j] += intervalsTotal(ivs)
			// Charge each relevant entity to its owning partition's map
			// task.
			charge := func(pi int, keyed bool, size int64) {
				base := entityBase(x, kk, pi, keyed)
				for _, iv := range ivs {
					p.MapEmits[pi] += intersectLen(iv, base, base+size)
				}
			}
			for pi := 0; pi < m; pi++ {
				if size := int64(x.SizeIn(kk, pi)); size > 0 {
					charge(pi, false, size)
				}
				if kk == 0 && x.MissingKeys() {
					charge(pi, true, int64(x.KeyedIn(pi)))
				}
			}
		}
	}
	return p, nil
}

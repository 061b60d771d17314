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
	shares := newShareTable(x, NewRanges(x.Pairs(), r))
	return &mapreduce.Job[AnnotatedEntity, PRKey, entity.Row, MatchOutput]{
		Name:           "pairrange",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, PRKey, entity.Row] {
			return &prMapper{x: x, shares: shares}
		},
		NewReducer: func() mapreduce.Reducer[PRKey, entity.Row, MatchOutput] {
			return &prReducer{x: x, shares: shares, group: &group{m: match}}
		},
		Partition: func(key PRKey, r int) int { return int(key.Range) % r },
		Compare:   comparePRKeys,
		Group:     groupPRKeys,
		Coding:    prKeyCoding,
	}, nil
}

// shareTable is PairRange's one relation between ranges and blocks,
// built once from the BDM: every block's shares, one per range that
// holds some of its pairs, in range order. A share carries its corner
// cells and the entities they make relevant. The mappers route by the
// table, the reducers read their groups' corners from it, and Plan sums
// it.
type shareTable struct {
	start  []int // block k's shares are shares[start[k]:start[k+1]]
	shares []share
}

// share is one block's pairs in range task: the intersection of the
// two pair intervals, read as its corner cells.
type share struct {
	task int
	corners
	entities span
}

func newShareTable(x *bdm.Matrix, ranges Ranges) *shareTable {
	// Blocks and ranges both cut [0, P) into intervals, so the shares,
	// their non-empty intersections, number fewer than the two together.
	t := &shareTable{
		start:  make([]int, x.NumBlocks()+1),
		shares: make([]share, 0, x.NumBlocks()+int(min(int64(ranges.R), ranges.P))),
	}
	for k := range x.NumBlocks() {
		t.start[k] = len(t.shares)
		off, pairs := x.PairOffset(k), x.BlockPairs(k)
		if pairs == 0 {
			continue
		}
		g := geometryOf(x, k)
		for j := ranges.Index(off); j <= ranges.Index(off+pairs-1); j++ {
			lo, hi := ranges.Bounds(j)
			c := g.corners(max(lo, off)-off, min(hi, off+pairs)-off)
			t.shares = append(t.shares, share{task: j, corners: c, entities: g.relevant(c)})
		}
	}
	t.start[x.NumBlocks()] = len(t.shares)
	return t
}

// of returns block k's shares.
func (t *shareTable) of(k int) []share { return t.shares[t.start[k]:t.start[k+1]] }

// at returns the corners of task's share of block k: a block's shares
// are those of consecutive ranges.
func (t *shareTable) at(k, task int) corners {
	s := t.of(k)
	return s[task-s[0].task].corners
}

type prMapper struct {
	x      *bdm.Matrix
	shares *shareTable
	// entityIndex[k] is the index the next block-k entity of this
	// partition will receive (Algorithm 2 lines 4-8): its partition's
	// base index in the block, then incremented per entity seen.
	entityIndex []int64
	// keyedIndex is the ⊥ row index of the partition's next keyed
	// entity.
	keyedIndex int64
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
// block-wise index and emit one annotated copy per range holding one of
// its pairs — and the same again for a keyed entity's place in the ⊥
// row.
func (mp *prMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, PRKey, entity.Row], rec AnnotatedEntity) {
	k := blockOf(mp.x, rec, "PairRange")
	mp.emit(ctx, k, mp.entityIndex[k], rec.Value)
	mp.entityIndex[k]++
	if k != 0 && mp.x.MissingKeys() {
		mp.emit(ctx, 0, mp.keyedIndex, rec.Value)
		mp.keyedIndex++
	}
}

// emit sends e, entity x of block k, to every share of k that holds it.
// No share holds an entity below its first column, and the first
// columns ascend with the range, so the scan stops at the first share
// that starts above x.
func (mp *prMapper) emit(ctx *mapreduce.MapContext[AnnotatedEntity, PRKey, entity.Row], k int, x int64, e entity.Row) {
	shares := mp.shares.of(k)
	for i := range shares {
		s := &shares[i]
		if s.xa > x {
			return
		}
		if s.entities.has(x) {
			ctx.Emit(PRKey{Range: int32(s.task), Block: int32(k), Index: x}, e)
		}
	}
}

type prReducer struct {
	x      *bdm.Matrix
	shares *shareTable
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
// task reads its share of the block from the share table, as the
// share's corner cells (xa, ya) and (xb, yb): the share is the columns
// xa..xb, from (xa, ya) on and up to (xb, yb). An entity becomes a row
// iff it is one of those columns, so the rows are xa, xa+1, … in order,
// and a probe meets every row loaded before it but at most the two ends
// (corners.meets). The block decides the probe against all rows;
// group.probe drops a hit on an excluded end. Completeness is covered
// by property tests against brute force and serial matching.
func (rd *prReducer) Reduce(ctx *matchCtx, k PRKey, values []mapreduce.Rec[PRKey, entity.Row]) {
	g := geometryOf(rd.x, int(k.Block))
	c := rd.shares.at(int(k.Block), rd.task)
	touch(rd.group, values)
	rd.begin(len(values))
	for _, v := range values {
		first, end, keep := c.meets(g, v.Key.Index, rd.len())
		rd.probe(ctx, v.Value, first, end, keep)
	}
	rd.end()
}

// Plan implements Strategy. All quantities are exact and computed from
// the BDM and its share table, never touching pairs:
//
//   - reduce comparisons: range k processes exactly its pair-interval
//     size;
//   - reduce records: the entities of each of the range's shares;
//   - map emits: the per-partition part of those entities — entities
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

	for j := range r {
		lo, hi := ranges.Bounds(j)
		p.ReduceComparisons[j] = hi - lo
	}
	shares := newShareTable(x, ranges)
	for k := range x.NumBlocks() {
		for pi := range m {
			p.MapRecords[pi] += int64(x.SizeIn(k, pi))
		}
		for _, s := range shares.of(k) {
			p.ReduceRecords[s.task] += s.entities.len()
			// Charge each relevant entity to its owning partition's map
			// task.
			for pi := range m {
				base := entityBase(x, k, pi, false)
				p.MapEmits[pi] += s.entities.within(base, base+int64(x.SizeIn(k, pi)))
				if k == 0 && x.MissingKeys() {
					base := entityBase(x, 0, pi, true)
					p.MapEmits[pi] += s.entities.within(base, base+int64(x.KeyedIn(pi)))
				}
			}
		}
	}
	return p, nil
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// BlockSplit implements the block-based load balancing strategy of
// Section IV. Blocks whose pair count does not exceed the average reduce
// workload P/r are processed like in Basic, as a single "match task".
// Larger blocks are split along the m input partitions into m sub-blocks,
// yielding m self-join match tasks (k.i) and m·(m−1)/2 cross-product
// match tasks (k.i×j). Match tasks are assigned to reduce tasks greedily
// in descending size order, each to the currently least-loaded task.
//
// Over a two-source matrix (Appendix I-A) a block's work is its R×S
// pairs, and a split block yields only the cross products of an R and an
// S partition; in every task the R entities are the rows each S entity
// is compared with. Over a matrix with missing keys (Section III) the ⊥
// row is a block like the others, of every keyless entity as rows and
// every keyed entity as probes, and split it makes tasks of sub-blocks
// the same way.
//
// The zero value is the paper's strategy. MaxEntitiesPerTask additionally
// enforces the memory constraint Section IV alludes to ("assigns entire
// blocks to reduce tasks if this does not violate load balancing or
// memory constraints"): a block whose entity count exceeds the limit is
// split even when its pair count is below the average reduce workload,
// bounding the number of entities any reduce call must buffer in memory.
type BlockSplit struct {
	// MaxEntitiesPerTask bounds the entities a single match task may
	// hold (0 = unlimited, the paper's default behaviour).
	MaxEntitiesPerTask int
}

// Name implements Strategy.
func (BlockSplit) Name() string { return "BlockSplit" }

// NeedsBDM implements Strategy.
func (BlockSplit) NeedsBDM() bool { return true }

// BSKey is the composite map-output key: reduce index ‖ block index ‖
// split ‖ role. The partition function uses only Reduce; sorting uses
// (Block, I, J, Role) and grouping (Block, I, J). The split component
// (I, J) encodes the match task: I = J = −1 for an unsplit block (k.*),
// I = J = i for sub-block k.i, and I > J for the cross product k.J×I.
// Role is the value's part in its task, decided by the mapper. The
// fields are as narrow as Job's limits allow (keyLimits), so the key
// takes 16 bytes.
type BSKey struct {
	Reduce int32
	Block  int32
	I, J   int16
	Role   int8
}

// The values of BSKey.Role. A cross product's rows sort before its
// probes, so the reducer needs nothing but the key. In the ⊥ row a
// keyed entity is a probe of its self-join, and a cross product k.j×i
// has four roles: j's keyless rows, i's keyed probes, which meet those
// alone, j's keyed rows, then i's keyless probes, which meet them all.
const (
	roleMember    = iota // self-join: meets every value before it, then is kept
	roleRow              // cross product: is kept, meets nothing
	roleProbe            // cross product: meets every row before it, is not kept
	roleLateRow          // ⊥ cross product: a row after the first probes
	roleLateProbe        // ⊥ cross product: a probe after the late rows
)

func (k BSKey) String() string {
	switch {
	case k.I < 0:
		return fmt.Sprintf("%d.%d.*", k.Reduce, k.Block)
	case k.I == k.J:
		return fmt.Sprintf("%d.%d.%d", k.Reduce, k.Block, k.I)
	default:
		return fmt.Sprintf("%d.%d.%dx%d", k.Reduce, k.Block, k.J, k.I)
	}
}

// taskID identifies one match task.
type taskID struct {
	block int
	i, j  int // −1,−1 = unsplit; i==j = sub-block; i>j = cross product
}

// matchTask is one unit of reduce-side work with its assignment.
type matchTask struct {
	id     taskID
	comps  int64
	reduce int
}

// Assignment is the deterministic outcome of BlockSplit's match-task
// creation and greedy distribution; both the executable job and the
// analytic planner are driven by it.
type Assignment struct {
	ordered []matchTask // descending comparisons
	loads   []int64     // per reduce task
	avg     int64       // compsPerReduceTask = P/r
	split   []bool      // per block: was it split into sub-blocks?
	m       int         // number of partitions

	// The mappers' view, dense because it is consulted once per entity:
	// for an unsplit block its one task's reduce task; for a split block
	// the start of its m×m table in pairs, where [i*m+j] (i ≥ j) is task
	// k.j×i's reduce task, or −1 when there is no such task.
	where []int32
	pairs []int32
}

// Split reports whether block k was split into sub-blocks.
func (a *Assignment) Split(k int) bool { return a.split[k] }

// greedyAssign implements the paper's heuristic: process match tasks in
// descending size and give each to the reduce task with the fewest
// already-assigned comparisons (ties: lowest index). The heap is
// hand-sifted rather than driven through container/heap, whose
// interface methods box one loadEntry per push and pop — two heap
// allocations per match task, which profiling showed dominating the
// planning phase on large assignments.
func greedyAssign(tasks []matchTask, r int) []int64 {
	loads := make([]int64, r)
	h := make(loadHeap, r)
	for i := range h {
		h[i] = loadEntry{load: 0, idx: i}
	}
	// All-zero loads with ascending indices is already a valid min-heap.
	for i := range tasks {
		tasks[i].reduce = h[0].idx
		h[0].load += tasks[i].comps
		loads[h[0].idx] = h[0].load
		h.siftDown(0)
	}
	return loads
}

// buildAssignment performs match-task creation (Algorithm 1, lines
// 6-21) and reduce-task assignment (lines 22-27) from the BDM, with
// match tasks capped at maxEntities entities when it is > 0.
func buildAssignment(x *bdm.Matrix, r, maxEntities int) *Assignment {
	m := x.NumPartitions()
	a := &Assignment{
		split:   make([]bool, x.NumBlocks()),
		m:       m,
		where:   make([]int32, x.NumBlocks()),
		ordered: make([]matchTask, 0, x.NumBlocks()),
	}
	if p := x.Pairs(); p > 0 {
		a.avg = p / int64(r)
	}
	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		if comps <= a.avg && (maxEntities <= 0 || x.Size(k) <= maxEntities) {
			a.ordered = append(a.ordered, matchTask{id: taskID{block: k, i: -1, j: -1}, comps: comps})
			continue
		}
		// Split along the input partitions.
		a.split[k] = true
		a.where[k] = int32(len(a.pairs))
		for range m * m {
			a.pairs = append(a.pairs, -1)
		}
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				if comps, ok := taskPairs(x, k, i, j); ok {
					a.ordered = append(a.ordered, matchTask{id: taskID{block: k, i: i, j: j}, comps: comps})
				}
			}
		}
	}
	slices.SortFunc(a.ordered, compareTasks)
	a.loads = greedyAssign(a.ordered, r)
	for _, t := range a.ordered {
		if k := t.id.block; a.split[k] {
			a.pairs[int(a.where[k])+t.id.i*m+t.id.j] = int32(t.reduce)
		} else {
			a.where[k] = int32(t.reduce)
		}
	}
	return a
}

// taskPairs returns the comparisons of match task k.j×i (i ≥ j) of a
// split block, and whether there is such a task: one with an entity on
// each side, a keyless one among them in a ⊥ row, whose partitions the
// matrix compares (two sources: not of one source). In a ⊥ row, with ⊥i
// keyless and Ki keyed entities in partition i, sub-block i compares
// C(⊥i,2) + ⊥i·Ki pairs and a cross product ⊥j·(⊥i+Ki) + Kj·⊥i.
func taskPairs(x *bdm.Matrix, k, i, j int) (int64, bool) {
	ni, nj := int64(x.SizeIn(k, i)), int64(x.SizeIn(k, j))
	ki, kj := int64(0), int64(0)
	if k == 0 && x.MissingKeys() {
		ki, kj = int64(x.KeyedIn(i)), int64(x.KeyedIn(j))
	}
	comps := ni*nj + ni*kj + ki*nj
	if i == j {
		comps = ni*(ni-1)/2 + ni*ki
	}
	return comps, (ni+ki)*(nj+kj) > 0 && ni+nj > 0 && x.Compares(i, j)
}

// compareTasks orders match tasks descending by comparisons; ties by
// ascending (block, i, j) for determinism (this reproduces the ordering
// of the paper's example). The tie-break makes the order total, so a
// non-stable sort on the concrete type suffices.
func compareTasks(tp, tq matchTask) int {
	if tp.comps != tq.comps {
		if tp.comps > tq.comps {
			return -1
		}
		return 1
	}
	if c := tp.id.block - tq.id.block; c != 0 {
		return c
	}
	if c := tp.id.i - tq.id.i; c != 0 {
		return c
	}
	return tp.id.j - tq.id.j
}

// reduceOf returns the reduce task of match task (block k, i, j) — for
// an unsplit block whatever i and j are — or −1 if there is no such task.
func (a *Assignment) reduceOf(k, i, j int) int {
	if !a.split[k] {
		return int(a.where[k])
	}
	return int(a.pairs[int(a.where[k])+i*a.m+j])
}

type loadEntry struct {
	load int64
	idx  int
}

type loadHeap []loadEntry

func (h loadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].idx < h[j].idx
}

// siftDown restores the min-heap property after h[i] grew.
func (h loadHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && h.less(r, l) {
			s = r
		}
		if !h.less(s, i) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

func groupBSKeys(a, b BSKey) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	if c := cmp.Compare(a.I, b.I); c != 0 {
		return c
	}
	return cmp.Compare(a.J, b.J)
}

func compareBSKeys(a, b BSKey) int {
	if c := groupBSKeys(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.Role, b.Role)
}

// bsKeyCoding packs a BSKey into an exact order-preserving code: block ‖
// i ‖ j in the high word — the grouping key, hence GroupBits 64 — and
// the role in the low word. Each field is stored with its sign bit
// flipped, which orders the whole range of its type as unsigned, so
// every key a job can build is coded.
var bsKeyCoding = mapreduce.KeyCoding[BSKey]{
	Encode: func(k BSKey) mapreduce.Code {
		return mapreduce.Code{
			Hi: uint64(uint32(k.Block)^1<<31)<<32 | uint64(uint16(k.I)^1<<15)<<16 | uint64(uint16(k.J)^1<<15),
			Lo: uint64(uint8(k.Role) ^ 1<<7),
		}
	},
	Exact:     true,
	GroupBits: 64,
}

// Job implements Strategy (Algorithm 1). Input records must be the BDM
// job's input (block-id-annotated rows, bdm.Annotate).
func (bs BlockSplit) Job(x *bdm.Matrix, r int, match Matcher) (MatchJob, error) {
	if err := validateJobParams("BlockSplit", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplit requires a BDM")
	}
	if err := keyLimits("BlockSplit", x.NumBlocks(), x.NumPartitions(), r, math.MaxInt16); err != nil {
		return nil, err
	}
	// The assignment is deterministic and identical in every map task;
	// compute it once and share it read-only (each Hadoop map task would
	// recompute it from the distributed BDM file).
	asg := buildAssignment(x, r, bs.MaxEntitiesPerTask)
	return &mapreduce.Job[AnnotatedEntity, BSKey, entity.Row, MatchOutput]{
		Name:           "blocksplit",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, BSKey, entity.Row] {
			return &bsMapper{x: x, asg: asg}
		},
		NewReducer: func() mapreduce.Reducer[BSKey, entity.Row, MatchOutput] {
			return &bsReducer{group: &group{m: match}}
		},
		Partition: func(key BSKey, r int) int { return int(key.Reduce) % r },
		Compare:   compareBSKeys,
		Group:     groupBSKeys,
		Coding:    bsKeyCoding,
	}, nil
}

type bsMapper struct {
	x         *bdm.Matrix
	asg       *Assignment
	m         int
	partition int
}

func (mp *bsMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: BlockSplit: job has %d map tasks but BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.m = m
	mp.partition = partitionIndex
}

// Map implements Algorithm 1 lines 29-44: one output per unsplit block
// entity, one per match task of its partition (own sub-block + one cross
// product per other compared partition) per split-block entity — and
// the same again for a keyed entity's place in the ⊥ row.
func (mp *bsMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, BSKey, entity.Row], rec AnnotatedEntity) {
	k := blockOf(mp.x, rec, "BlockSplit")
	mp.emit(ctx, k, rec.Value, false)
	if k != 0 && mp.x.MissingKeys() {
		mp.emit(ctx, 0, rec.Value, true)
	}
}

// emit sends e, an entity of block k — with keyed, a keyed entity of
// the ⊥ row — to its match tasks. A keyed entity meets only keyless
// ones, so it skips the tasks of a partition without them.
func (mp *bsMapper) emit(ctx *mapreduce.MapContext[AnnotatedEntity, BSKey, entity.Row], k int, e entity.Row, keyed bool) {
	if !mp.asg.split[k] {
		if mp.x.BlockPairs(k) == 0 {
			return // nothing to compare
		}
		ctx.Emit(BSKey{Reduce: int32(mp.asg.reduceOf(k, -1, -1)), Block: int32(k), I: -1, J: -1, Role: mp.role(k, -1, -1, keyed)}, e)
		return
	}
	for i := 0; i < mp.m; i++ {
		hi, lo := max(mp.partition, i), min(mp.partition, i)
		reduce := mp.asg.reduceOf(k, hi, lo)
		if reduce < 0 || keyed && mp.x.SizeIn(0, i) == 0 {
			continue // no such task, or nothing in it to compare with
		}
		ctx.Emit(BSKey{Reduce: int32(reduce), Block: int32(k), I: int16(hi), J: int16(lo), Role: mp.role(k, hi, lo, keyed)}, e)
	}
}

// role is the part this partition's entities play in match task
// k.lo×hi: with two sources R is the row side of every task, with one
// source a cross product's rows are the lower partition's. In the ⊥ row
// a keyed entity is a probe, except on the row side of a cross product,
// where it is a late row, and the keyless probes come late.
func (mp *bsMapper) role(k, hi, lo int, keyed bool) int8 {
	switch {
	case mp.x.TwoSources() && mp.x.PartitionSource(mp.partition) == bdm.SourceR:
		return roleRow
	case mp.x.TwoSources():
		return roleProbe
	case keyed && hi != lo && mp.partition == lo:
		return roleLateRow
	case keyed:
		return roleProbe
	case hi == lo:
		return roleMember
	case mp.partition == lo:
		return roleRow
	case k == 0 && mp.x.MissingKeys():
		return roleLateProbe
	}
	return roleProbe
}

type bsReducer struct{ *group }

func (rd *bsReducer) Configure(_, _, _ int) {}

// Reduce implements Algorithm 1 lines 48-65, reading each value's role
// from its key: a self-join member meets every row loaded before it and
// becomes a row; a cross product's rows, which sort first, are loaded,
// and each probe meets all rows loaded before it without being kept.
func (rd *bsReducer) Reduce(ctx *matchCtx, _ BSKey, values []mapreduce.Rec[BSKey, entity.Row]) {
	touch(rd.group, values)
	rd.begin(len(values))
	for _, v := range values {
		switch v.Key.Role {
		case roleMember:
			rd.probe(ctx, v.Value, 0, rd.len(), true)
		case roleRow, roleLateRow:
			rd.probe(ctx, v.Value, 0, 0, true)
		default: // roleProbe, roleLateProbe
			rd.probe(ctx, v.Value, 0, rd.len(), false)
		}
	}
	rd.end()
}

// Plan implements Strategy: it reuses the exact match-task creation and
// assignment of the executable job and derives all per-task workloads
// from the BDM alone.
func (bs BlockSplit) Plan(x *bdm.Matrix, m, r int) (*Plan, error) {
	return blockSplitPlan(x, m, r, bs.MaxEntitiesPerTask)
}

func blockSplitPlan(x *bdm.Matrix, m, r, maxEntities int) (*Plan, error) {
	if err := validatePlanParams("BlockSplit", m, r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplit.Plan requires a BDM")
	}
	if x.NumPartitions() != m {
		return nil, fmt.Errorf("core: BlockSplit.Plan: BDM has %d partitions, want m=%d", x.NumPartitions(), m)
	}
	asg := buildAssignment(x, r, maxEntities)
	p := newPlan("BlockSplit", m, r)
	copy(p.ReduceComparisons, asg.loads)
	for k := 0; k < x.NumBlocks(); k++ {
		for pi := 0; pi < m; pi++ {
			p.MapRecords[pi] += int64(x.SizeIn(k, pi))
		}
	}
	// Every entity a map task emits is a record of the task it goes to.
	add := func(reduce, pi int, n int64) {
		p.MapEmits[pi] += n
		p.ReduceRecords[reduce] += n
	}
	for _, t := range asg.ordered {
		k, i, j := t.id.block, t.id.i, t.id.j
		switch {
		case i < 0: // unsplit: receives the whole block, if it compares anything
			for pi := 0; pi < m && t.comps > 0; pi++ {
				add(t.reduce, pi, sent(x, k, pi, -1))
			}
		case i == j: // sub-block self-join
			add(t.reduce, i, sent(x, k, i, i))
		default: // cross product of two sub-blocks
			add(t.reduce, i, sent(x, k, i, j))
			add(t.reduce, j, sent(x, k, j, i))
		}
	}
	return p, nil
}

// sent returns the entities partition i sends to a match task of block
// k: its block-k entities, and in the ⊥ row its keyed ones too, except
// to a split task shared with a partition j without keyless entities
// for them to meet (j < 0: the unsplit block's task).
func sent(x *bdm.Matrix, k, i, j int) int64 {
	n := x.SizeIn(k, i)
	if k == 0 && x.MissingKeys() && (j < 0 || x.SizeIn(0, j) > 0) {
		n += x.KeyedIn(i)
	}
	return int64(n)
}

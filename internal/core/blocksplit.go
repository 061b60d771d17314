package core

import (
	"cmp"
	"fmt"
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
// is compared with.
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
// Role is the value's part in its task, decided by the mapper.
type BSKey struct {
	Reduce int
	Block  int
	I, J   int
	Role   int
}

// The values of BSKey.Role. A cross product's rows sort before its
// probes, so the reducer needs nothing but the key.
const (
	roleMember = iota // self-join: meets every value before it, then is kept
	roleRow           // cross product: is kept, meets nothing
	roleProbe         // cross product: meets every row, is not kept
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

// NumTasks returns the number of match tasks created.
func (a *Assignment) NumTasks() int { return len(a.ordered) }

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

// BuildAssignment performs match-task creation (Algorithm 1, lines 6-21)
// and reduce-task assignment (lines 22-27) from the BDM.
func BuildAssignment(x *bdm.Matrix, r int) *Assignment {
	return buildAssignment(x, r, 0)
}

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
		// Split along the input partitions; skip combinations with an
		// empty side (|Φik|·|Φjk| = 0) and those the matrix does not
		// compare (two sources: partitions of one source).
		a.split[k] = true
		a.where[k] = int32(len(a.pairs))
		for range m * m {
			a.pairs = append(a.pairs, -1)
		}
		for i := 0; i < m; i++ {
			ni := int64(x.SizeIn(k, i))
			for j := 0; j <= i; j++ {
				nj := int64(x.SizeIn(k, j))
				if ni*nj == 0 || !x.Compares(i, j) {
					continue
				}
				comps := ni * nj
				if i == j {
					comps = ni * (ni - 1) / 2
				}
				a.ordered = append(a.ordered, matchTask{id: taskID{block: k, i: i, j: j}, comps: comps})
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
// i+1 ‖ j+1 in the high word — the grouping key, hence GroupBits 64; the
// +1 maps the unsplit sentinel −1 to 0 — and the role in the low word.
// The split components share 32 bits, so a BDM of 2¹⁶ partitions or more
// (or of more than 2³² blocks) disables the coding and the engine falls
// back to the struct comparator.
func bsKeyCoding(x *bdm.Matrix) mapreduce.KeyCoding[BSKey] {
	if x.NumBlocks() > 1<<32 || x.NumPartitions() >= 1<<16 {
		return mapreduce.KeyCoding[BSKey]{}
	}
	return mapreduce.KeyCoding[BSKey]{
		Encode: func(k BSKey) mapreduce.Code {
			return mapreduce.Code{
				Hi: uint64(uint32(k.Block))<<32 | uint64(uint16(k.I+1))<<16 | uint64(uint16(k.J+1)),
				Lo: uint64(k.Role),
			}
		},
		Exact:     true,
		GroupBits: 64,
	}
}

// Job implements Strategy (Algorithm 1). Input records must be the BDM
// job's side output (blocking-key-annotated entities).
func (bs BlockSplit) Job(x *bdm.Matrix, r int, match Matcher) (MatchJob, error) {
	if err := validateJobParams("BlockSplit", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplit requires a BDM")
	}
	// The assignment is deterministic and identical in every map task;
	// compute it once and share it read-only (each Hadoop map task would
	// recompute it from the distributed BDM file).
	asg := buildAssignment(x, r, bs.MaxEntitiesPerTask)
	return &mapreduce.Job[AnnotatedEntity, BSKey, entity.Entity, MatchOutput]{
		Name:           "blocksplit",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, BSKey, entity.Entity] {
			return &bsMapper{x: x, asg: asg}
		},
		NewReducer: func() mapreduce.Reducer[BSKey, entity.Entity, MatchOutput] {
			return &bsReducer{group: &group{m: match}}
		},
		Partition: func(key BSKey, r int) int { return key.Reduce % r },
		Compare:   compareBSKeys,
		Group:     groupBSKeys,
		Coding:    bsKeyCoding(x),
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
// product per other compared partition) per split-block entity.
func (mp *bsMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, BSKey, entity.Entity], rec AnnotatedEntity) {
	k, ok := mp.x.BlockIndex(rec.Key)
	if !ok {
		panic(fmt.Sprintf("core: BlockSplit: blocking key %q not present in BDM", rec.Key))
	}
	if !mp.asg.split[k] {
		if mp.x.BlockPairs(k) == 0 {
			return // nothing to compare
		}
		ctx.Emit(BSKey{Reduce: mp.asg.reduceOf(k, -1, -1), Block: k, I: -1, J: -1, Role: mp.role(-1, -1)}, rec.Value)
		return
	}
	for i := 0; i < mp.m; i++ {
		hi, lo := max(mp.partition, i), min(mp.partition, i)
		reduce := mp.asg.reduceOf(k, hi, lo)
		if reduce < 0 {
			continue // empty or uncompared counterpart partition
		}
		ctx.Emit(BSKey{Reduce: reduce, Block: k, I: hi, J: lo, Role: mp.role(hi, lo)}, rec.Value)
	}
}

// role is the part this partition's entities play in match task
// k.lo×hi: with two sources R is the row side of every task, with one
// source a cross product's rows are the lower partition's.
func (mp *bsMapper) role(hi, lo int) int {
	switch {
	case mp.x.TwoSources() && mp.x.PartitionSource(mp.partition) == bdm.SourceR:
		return roleRow
	case mp.x.TwoSources():
		return roleProbe
	case hi == lo:
		return roleMember
	case mp.partition == lo:
		return roleRow
	}
	return roleProbe
}

type bsReducer struct{ *group }

func (rd *bsReducer) Configure(_, _, _ int) {}

// Reduce implements Algorithm 1 lines 48-65, reading each value's role
// from its key: a self-join member meets every row loaded before it and
// becomes a row; a cross product's rows, which sort first, are loaded,
// and each probe meets all of them without being kept.
func (rd *bsReducer) Reduce(ctx *matchCtx, _ BSKey, values []mapreduce.Rec[BSKey, entity.Entity]) {
	rd.begin(len(values))
	for _, v := range values {
		switch v.Key.Role {
		case roleMember:
			rd.probe(ctx, v.Value, 0, rd.len(), true)
		case roleRow:
			rd.probe(ctx, v.Value, 0, 0, true)
		default:
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

	for _, t := range asg.ordered {
		k := t.id.block
		switch {
		case t.id.i < 0: // unsplit: receives the whole block (if non-trivial)
			if t.comps > 0 {
				p.ReduceRecords[t.reduce] += int64(x.Size(k))
			}
		case t.id.i == t.id.j: // sub-block self-join
			p.ReduceRecords[t.reduce] += int64(x.SizeIn(k, t.id.i))
		default: // cross product of two sub-blocks
			p.ReduceRecords[t.reduce] += int64(x.SizeIn(k, t.id.i) + x.SizeIn(k, t.id.j))
		}
	}

	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		split := asg.split[k]
		for pi := 0; pi < m; pi++ {
			n := int64(x.SizeIn(k, pi))
			if n == 0 {
				continue
			}
			p.MapRecords[pi] += n
			switch {
			case !split && comps > 0:
				p.MapEmits[pi] += n
			case split:
				// Each entity of partition pi is emitted once per match
				// task involving pi: one per non-empty partition it is
				// compared with (its own sub-block included).
				emitsPer := int64(0)
				for i := 0; i < m; i++ {
					if x.SizeIn(k, i) > 0 && x.Compares(pi, i) {
						emitsPer++
					}
				}
				p.MapEmits[pi] += n * emitsPer
			}
		}
	}
	return p, nil
}

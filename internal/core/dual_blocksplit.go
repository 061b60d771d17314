package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// BlockSplitDual is the two-source extension of BlockSplit described in
// Appendix I-A. Match work of block Φk is |Φk,R|·|Φk,S| cross-source
// comparisons; blocks whose work exceeds the average reduce workload are
// split along the input partitions, but the resulting cross-product match
// tasks k.i×j are restricted to Πi ∈ R and Πj ∈ S (no same-source
// comparisons). Keys and values carry the entity's source so the reduce
// function can buffer all R entities and compare each S entity against
// them.
type BlockSplitDual struct{}

// Name implements DualStrategy.
func (BlockSplitDual) Name() string { return "BlockSplit" }

// BSDKey is the composite map-output key: reduce index ‖ block index ‖
// split ‖ source. RPart/SPart identify the sub-block pair of a split
// block (−1,−1 = unsplit). Sorting places source R before S within a
// group, which lets the reduce function buffer R first.
type BSDKey struct {
	Reduce int
	Block  int
	RPart  int
	SPart  int
	Source bdm.Source
}

func (k BSDKey) String() string {
	if k.RPart < 0 {
		return fmt.Sprintf("%d.%d.*.%s", k.Reduce, k.Block, k.Source)
	}
	return fmt.Sprintf("%d.%d.%dx%d.%s", k.Reduce, k.Block, k.RPart, k.SPart, k.Source)
}

// dualAssignment mirrors Assignment for the two-source case: the same
// match tasks, order and greedy policy, with a task's i the R partition
// and its j the S partition (−1, −1 = unsplit).
type dualAssignment struct {
	tasks   map[taskID]*matchTask
	ordered []matchTask
	loads   []int64
	avg     int64
}

func buildDualAssignment(x *bdm.DualMatrix, r int) *dualAssignment {
	a := &dualAssignment{}
	if p := x.Pairs(); p > 0 {
		a.avg = p / int64(r)
	}
	m := x.NumPartitions()
	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		if comps == 0 {
			continue // one side empty: the block needs no processing
		}
		if comps <= a.avg {
			a.ordered = append(a.ordered, matchTask{id: taskID{block: k, i: -1, j: -1}, comps: comps})
			continue
		}
		for i := 0; i < m; i++ {
			if x.PartitionSource(i) != bdm.SourceR {
				continue
			}
			ni := int64(x.SizeIn(k, i))
			if ni == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				if x.PartitionSource(j) != bdm.SourceS {
					continue
				}
				nj := int64(x.SizeIn(k, j))
				if nj == 0 {
					continue
				}
				a.ordered = append(a.ordered, matchTask{id: taskID{block: k, i: i, j: j}, comps: ni * nj})
			}
		}
	}
	slices.SortFunc(a.ordered, compareTasks)
	a.loads = GreedyAssign(a.ordered, r)
	a.tasks = make(map[taskID]*matchTask, len(a.ordered))
	for n := range a.ordered {
		a.tasks[a.ordered[n].id] = &a.ordered[n]
	}
	return a
}

func compareBSDKeys(a, b BSDKey) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RPart, b.RPart); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SPart, b.SPart); c != 0 {
		return c
	}
	return cmp.Compare(a.Source, b.Source)
}

func groupBSDKeys(a, b BSDKey) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RPart, b.RPart); c != 0 {
		return c
	}
	return cmp.Compare(a.SPart, b.SPart)
}

// bsdKeyCoding packs a BSDKey exactly: block ‖ rPart+1 ‖ sPart+1 in the
// high word (the grouping key, hence GroupBits 64), the source bit in
// the low word.
func bsdKeyCoding(x *bdm.DualMatrix) mapreduce.KeyCoding[BSDKey] {
	if x.NumBlocks() > 1<<32 || x.NumPartitions() >= (1<<16)-1 {
		return mapreduce.KeyCoding[BSDKey]{}
	}
	return mapreduce.KeyCoding[BSDKey]{
		Encode: func(k BSDKey) mapreduce.Code {
			return mapreduce.Code{
				Hi: uint64(uint32(k.Block))<<32 | uint64(uint16(k.RPart+1))<<16 | uint64(uint16(k.SPart+1)),
				Lo: uint64(k.Source),
			}
		},
		Exact:     true,
		GroupBits: 64,
	}
}

// Job implements DualStrategy. Input records must be blocking-key-
// annotated entities; each input partition holds entities of exactly
// one source as recorded in the DualMatrix.
func (BlockSplitDual) Job(x *bdm.DualMatrix, r int, match Matcher) (MatchJob, error) {
	return blockSplitDualJob(x, r, matchKernel{match: match})
}

// JobPrepared implements PreparedDualStrategy.
func (BlockSplitDual) JobPrepared(x *bdm.DualMatrix, r int, pm PreparedMatcher) (MatchJob, error) {
	return blockSplitDualJob(x, r, matchKernel{pm: pm})
}

func blockSplitDualJob(x *bdm.DualMatrix, r int, kern matchKernel) (MatchJob, error) {
	if err := validateJobParams("BlockSplitDual", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplitDual requires a dual BDM")
	}
	asg := buildDualAssignment(x, r)
	return &mapreduce.Job[AnnotatedEntity, BSDKey, entity.Entity, MatchOutput]{
		Name:           "blocksplit-dual",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, BSDKey, entity.Entity] {
			return &bsdMapper{x: x, asg: asg}
		},
		NewReducer: func() mapreduce.Reducer[BSDKey, entity.Entity, MatchOutput] {
			return &bsdReducer{group: kern.newGroup()}
		},
		Partition: func(key BSDKey, r int) int { return key.Reduce % r },
		Compare:   compareBSDKeys,
		Group:     groupBSDKeys,
		Coding:    bsdKeyCoding(x),
	}, nil
}

type bsdMapper struct {
	x         *bdm.DualMatrix
	asg       *dualAssignment
	partition int
	source    bdm.Source
}

func (mp *bsdMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: BlockSplitDual: job has %d map tasks but dual BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.partition = partitionIndex
	mp.source = mp.x.PartitionSource(partitionIndex)
}

func (mp *bsdMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, BSDKey, entity.Entity], rec AnnotatedEntity) {
	blockKey := rec.Key
	e := rec.Value
	k, ok := mp.x.BlockIndex(blockKey)
	if !ok {
		panic(fmt.Sprintf("core: BlockSplitDual: blocking key %q not present in dual BDM", blockKey))
	}
	comps := mp.x.BlockPairs(k)
	if comps == 0 {
		return // counterpart source has no entities with this key
	}
	if comps <= mp.asg.avg {
		t := mp.asg.tasks[taskID{block: k, i: -1, j: -1}]
		ctx.Emit(BSDKey{Reduce: t.reduce, Block: k, RPart: -1, SPart: -1, Source: mp.source}, e)
		return
	}
	// Split block: emit one copy per match task pairing this entity's
	// partition with each non-empty partition of the other source.
	for p := 0; p < mp.x.NumPartitions(); p++ {
		if mp.x.PartitionSource(p) == mp.source || mp.x.SizeIn(k, p) == 0 {
			continue
		}
		id := taskID{block: k, i: mp.partition, j: p}
		if mp.source == bdm.SourceS {
			id = taskID{block: k, i: p, j: mp.partition}
		}
		t := mp.asg.tasks[id]
		if t == nil {
			continue
		}
		ctx.Emit(BSDKey{Reduce: t.reduce, Block: k, RPart: id.i, SPart: id.j, Source: mp.source}, e)
	}
}

type bsdReducer struct{ *group }

func (rd *bsdReducer) Configure(_, _, _ int) {}

// Reduce loads all R entities as rows (sorted first via the Source key
// component) and compares each S entity against all of them — only
// cross-source pairs are evaluated.
func (rd *bsdReducer) Reduce(ctx *matchCtx, _ BSDKey, values []mapreduce.Rec[BSDKey, entity.Entity]) {
	rd.begin(len(values))
	for _, v := range values {
		if v.Key.Source == bdm.SourceR {
			rd.probe(ctx, v.Value, 0, 0, true)
		} else {
			rd.probe(ctx, v.Value, 0, rd.len(), false)
		}
	}
	rd.end()
}

// Plan implements DualStrategy analytically.
func (BlockSplitDual) Plan(x *bdm.DualMatrix, r int) (*Plan, error) {
	if err := validateJobParams("BlockSplitDual", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplitDual.Plan requires a dual BDM")
	}
	m := x.NumPartitions()
	asg := buildDualAssignment(x, r)
	p := newPlan("BlockSplitDual", m, r)
	copy(p.ReduceComparisons, asg.loads)

	for _, t := range asg.ordered {
		k := t.id.block
		if t.id.i < 0 {
			p.ReduceRecords[t.reduce] += int64(x.SourceSize(k, bdm.SourceR) + x.SourceSize(k, bdm.SourceS))
		} else {
			p.ReduceRecords[t.reduce] += int64(x.SizeIn(k, t.id.i) + x.SizeIn(k, t.id.j))
		}
	}

	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		split := comps > asg.avg
		for pi := 0; pi < m; pi++ {
			n := int64(x.SizeIn(k, pi))
			if n == 0 {
				continue
			}
			p.MapRecords[pi] += n
			if comps == 0 {
				continue
			}
			if !split {
				p.MapEmits[pi] += n
				continue
			}
			other := bdm.SourceR
			if x.PartitionSource(pi) == bdm.SourceR {
				other = bdm.SourceS
			}
			emitsPer := int64(0)
			for q := 0; q < m; q++ {
				if x.PartitionSource(q) == other && x.SizeIn(k, q) > 0 {
					emitsPer++
				}
			}
			p.MapEmits[pi] += n * emitsPer
		}
	}
	return p, nil
}

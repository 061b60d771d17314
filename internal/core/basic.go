package core

import (
	"cmp"
	"fmt"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Basic is the straightforward MR implementation of blocking-based ER
// described in Section III: map emits (block id, entity), the default
// hash partitioner routes whole blocks to reduce tasks — Hadoop's on an
// int key is id % r — and each reduce call compares all entities of one
// block. It needs no BDM and no preprocessing job, but the match work
// of an entire block lands on a single reduce task, so skewed block
// sizes dominate the execution time.
type Basic struct{}

// Name implements Strategy.
func (Basic) Name() string { return "Basic" }

// NeedsBDM implements Strategy: Basic runs without the preprocessing job.
func (Basic) NeedsBDM() bool { return false }

// Job implements Strategy. The BDM is ignored and may be nil.
func (Basic) Job(_ *bdm.Matrix, r int, match Matcher) (MatchJob, error) {
	if err := validateJobParams("Basic", r); err != nil {
		return nil, err
	}
	return &mapreduce.Job[AnnotatedEntity, int32, entity.Row, MatchOutput]{
		Name:           "basic",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, int32, entity.Row] {
			return &mapreduce.MapperFunc[AnnotatedEntity, int32, entity.Row]{
				OnMap: func(ctx *mapreduce.MapContext[AnnotatedEntity, int32, entity.Row], rec AnnotatedEntity) {
					// Input records are annotated rows (block id, row);
					// Basic forwards them unchanged.
					ctx.Emit(rec.Key, rec.Value)
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[int32, entity.Row, MatchOutput] {
			return &basicReducer{group: &group{m: match}}
		},
		Partition: func(id int32, r int) int { return int(id) % r },
		Compare:   cmp.Compare[int32],
		Coding:    basicKeyCoding,
	}, nil
}

// basicKeyCoding is the block id's exact code, its sign bit flipped
// (see bsKeyCoding).
var basicKeyCoding = mapreduce.KeyCoding[int32]{
	Encode:    func(id int32) mapreduce.Code { return mapreduce.Code{Hi: uint64(uint32(id) ^ 1<<31)} },
	Exact:     true,
	GroupBits: 64,
}

type basicReducer struct{ *group }

func (b *basicReducer) Configure(_, _, _ int) {}

// Reduce compares all entities of one block with each other: each value
// meets every row loaded before it and becomes a row itself. Holding
// every already-seen entity is what forces a reduce task to keep an
// entire block in memory — the paper's memory-bottleneck argument
// against Basic.
func (b *basicReducer) Reduce(ctx *matchCtx, _ int32, values []mapreduce.Rec[int32, entity.Row]) {
	touch(b.group, values)
	b.begin(len(values))
	for _, v := range values {
		b.probe(ctx, v.Value, 0, b.len(), true)
	}
	b.end()
}

// Plan implements Strategy: per-reduce-task comparisons follow from
// partitioning whole blocks by id; the map phase emits exactly one
// key-value pair per input entity.
func (Basic) Plan(x *bdm.Matrix, m, r int) (*Plan, error) {
	if err := validatePlanParams("Basic", m, r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: Basic.Plan requires a BDM (used only for analysis)")
	}
	if x.NumPartitions() != m {
		return nil, fmt.Errorf("core: Basic.Plan: BDM has %d partitions, want m=%d", x.NumPartitions(), m)
	}
	p := newPlan("Basic", m, r)
	for k := 0; k < x.NumBlocks(); k++ {
		j := k % r
		p.ReduceComparisons[j] += x.BlockPairs(k)
		p.ReduceRecords[j] += int64(x.Size(k))
		for pi := 0; pi < m; pi++ {
			n := int64(x.SizeIn(k, pi))
			p.MapRecords[pi] += n
			p.MapEmits[pi] += n
		}
	}
	return p, nil
}

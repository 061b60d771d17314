package core

import (
	"fmt"
	"strings"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Basic is the straightforward MR implementation of blocking-based ER
// described in Section III: map emits (blocking key, entity), the default
// hash partitioner routes whole blocks to reduce tasks, and each reduce
// call compares all entities of one block. It needs no BDM and no
// preprocessing job, but the match work of an entire block lands on a
// single reduce task, so skewed block sizes dominate the execution time.
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
	return &mapreduce.Job[AnnotatedEntity, string, entity.Row, MatchOutput]{
		Name:           "basic",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, string, entity.Row] {
			return &mapreduce.MapperFunc[AnnotatedEntity, string, entity.Row]{
				OnMap: func(ctx *mapreduce.MapContext[AnnotatedEntity, string, entity.Row], rec AnnotatedEntity) {
					// Input records are annotated rows (blocking key,
					// row); Basic forwards them unchanged.
					ctx.Emit(rec.Key, rec.Value)
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, entity.Row, MatchOutput] {
			return &basicReducer{group: &group{m: match}}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
		// The blocking key is an arbitrary string: a 16-byte prefix code
		// decides most comparisons, ties fall back to the full compare.
		Coding: mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}, nil
}

type basicReducer struct{ *group }

func (b *basicReducer) Configure(_, _, _ int) {}

// Reduce compares all entities of one block with each other: each value
// meets every row loaded before it and becomes a row itself. Holding
// every already-seen entity is what forces a reduce task to keep an
// entire block in memory — the paper's memory-bottleneck argument
// against Basic.
func (b *basicReducer) Reduce(ctx *matchCtx, _ string, values []mapreduce.Rec[string, entity.Row]) {
	b.begin(len(values))
	for _, v := range values {
		b.probe(ctx, v.Value, 0, b.len(), true)
	}
	b.end()
}

// Plan implements Strategy: per-reduce-task comparisons follow from
// hash-partitioning whole blocks; the map phase emits exactly one
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
		j := mapreduce.HashPartition(x.BlockKey(k), r)
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

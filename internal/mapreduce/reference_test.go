package mapreduce

import "slices"

// Reference is the repo's one reference implementation of the Section II
// model, the thing every engine differential compares against: run the
// map tasks one after the other, route each emission with part, sort
// every reduce task's share with one stable sort by comp — so equal keys
// keep map-task order, then emission order — cut it into runs of group,
// and reduce them task by task. It has no attempts, pools, spills or
// goroutines, and it never looks at a key code: a coding that disagrees
// with Compare or Group shows up as engine ≢ Reference.
//
// The Result carries everything the differential contract covers. The
// attempt and spill counters stay zero — they record how the engine
// executed, which the reference did not do — and callers clear them on
// the engine's side.
//
// It is a method so that external test packages reach it on type-erased
// jobs too: Go builds their dependencies against this test variant of
// the package, and a core.MatchJob asserts to
// interface{ Reference([][]I) *Result[I, O] }.
func (j *Job[I, K, V, O]) Reference(input [][]I) *Result[I, O] {
	m, r := len(input), j.NumReduceTasks
	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
		Output: []O{},
	}
	group := j.Group
	if group == nil {
		group = j.Compare
	}

	shuffle := make([][]Rec[K, V], r)
	for i, part := range input {
		metrics := &res.MapMetrics[i]
		*metrics = TaskMetrics{Kind: MapTask, Index: i, InputRecords: int64(len(part))}
		// A spiller over the zero run store has no budget: add appends.
		emitted := &spiller[K, V]{rs: &runStore[K, V]{}}
		ctx := &MapContext[I, K, V]{metrics: metrics, spill: emitted}
		mapper := j.NewMapper()
		mapper.Configure(m, r, i)
		for _, rec := range part {
			mapper.Map(ctx, rec)
		}
		if closer, ok := mapper.(MapCloser[I, K, V]); ok {
			closer.Close(ctx)
		}
		res.MapOutputRecords += metrics.OutputRecords
		for _, rec := range emitted.recs {
			p := j.Partition(rec.Key, r)
			shuffle[p] = append(shuffle[p], rec)
		}
	}

	for t, recs := range shuffle {
		slices.SortStableFunc(recs, func(a, b Rec[K, V]) int { return j.Compare(a.Key, b.Key) })
		metrics := &res.ReduceMetrics[t]
		*metrics = TaskMetrics{Kind: ReduceTask, Index: t, InputRecords: int64(len(recs))}
		ctx := &ReduceContext[O]{metrics: metrics}
		reducer := j.NewReducer()
		reducer.Configure(m, r, t)
		for lo := 0; lo < len(recs); {
			hi := lo + 1
			for hi < len(recs) && group(recs[lo].Key, recs[hi].Key) == 0 {
				hi++
			}
			metrics.InputGroups++
			metrics.MaxGroupRecords = max(metrics.MaxGroupRecords, int64(hi-lo))
			reducer.Reduce(ctx, recs[lo].Key, recs[lo:hi])
			lo = hi
		}
		res.Output = append(res.Output, ctx.out...)
	}
	return res
}

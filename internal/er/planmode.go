package er

import (
	"fmt"

	"repro/internal/bdm"
	"repro/internal/cluster"
	"repro/internal/core"
)

// BDMWorkload computes the analytic workload of the paper's BDM job
// (Job 1, Algorithm 3) from the matrix it would produce: every map task
// reads its partition and emits one pair per entity (or one partial
// count per non-empty (block, partition) cell when the mapper
// aggregates, footnote 2); each reduce task receives the cells of the
// blocks partitioned to it by id (block % r) and performs no
// comparisons. It models the paper's cluster for the figures, like
// cluster.DefaultCostModel: the pipeline counts the matrix in the
// driver (bdm.Annotate) and runs no such job, and only the combiner's
// total, the non-zero cells, is held to the count's record.
func BDMWorkload(x *bdm.Matrix, r int, combiner bool) cluster.JobWorkload {
	m := x.NumPartitions()
	w := cluster.JobWorkload{
		Name:              "bdm",
		MapRecords:        make([]int64, m),
		MapEmits:          make([]int64, m),
		ReduceRecords:     make([]int64, r),
		ReduceComparisons: make([]int64, r),
	}
	for k := 0; k < x.NumBlocks(); k++ {
		j := k % r
		for p := 0; p < m; p++ {
			n := int64(x.SizeIn(k, p))
			if n == 0 {
				continue
			}
			w.MapRecords[p] += n
			if combiner {
				w.MapEmits[p]++
				w.ReduceRecords[j]++
			} else {
				w.MapEmits[p] += n
				w.ReduceRecords[j] += n
			}
		}
	}
	return w
}

// PlanWorkloads computes the analytic workloads of the full workflow for
// the given strategy: the paper's BDM job (when the strategy needs it;
// see BDMWorkload) followed by the matching job. It also returns the
// matching job's plan.
func PlanWorkloads(x *bdm.Matrix, strat core.Strategy, m, r int, combiner bool) ([]cluster.JobWorkload, *core.Plan, error) {
	plan, err := strat.Plan(x, m, r)
	if err != nil {
		return nil, nil, err
	}
	var ws []cluster.JobWorkload
	if strat.NeedsBDM() {
		ws = append(ws, BDMWorkload(x, r, combiner))
	}
	ws = append(ws, plan.Workload(strat.Name()))
	return ws, plan, nil
}

// SimulatedStrategyTime is the one-call convenience used by the
// experiment harness: plan the workflow analytically and simulate its
// jobs in order on cfg under the default cost model, returning the
// total simulated time.
func SimulatedStrategyTime(x *bdm.Matrix, strat core.Strategy, m, r int, cfg cluster.Config) (float64, error) {
	ws, _, err := PlanWorkloads(x, strat, m, r, true)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, w := range ws {
		t, err := cluster.SimulateJob(cfg, cluster.DefaultCostModel(), w)
		if err != nil {
			return 0, fmt.Errorf("er: simulate job %q: %w", w.Name, err)
		}
		total += t
	}
	return total, nil
}

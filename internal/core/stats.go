package core

import (
	"math"
	"slices"
)

// LoadStats summarizes how evenly a workload is spread over tasks. It is
// the quantitative backing for the paper's balance claims: Basic's
// comparison loads have near-1 Gini under skew while BlockSplit and
// PairRange stay near 0.
type LoadStats struct {
	Tasks int
	Total int64
	Max   int64
	Min   int64
	Mean  float64
	// StdDev is the population standard deviation of the loads.
	StdDev float64
	// CV is the coefficient of variation (StdDev/Mean); 0 for a
	// perfectly even distribution.
	CV float64
	// MaxOverMean is the straggler factor: the heaviest task's load
	// relative to the mean. The reduce-phase makespan is at least
	// MaxOverMean times the balanced optimum.
	MaxOverMean float64
	// Gini is the Gini coefficient of the loads in [0,1): 0 = perfectly
	// even, →1 = all load on one task.
	Gini float64
}

// ComputeLoadStats derives LoadStats from per-task loads. Zero tasks
// yield the zero value.
func ComputeLoadStats(loads []int64) LoadStats {
	st := LoadStats{Tasks: len(loads)}
	if len(loads) == 0 {
		return st
	}
	st.Min = loads[0]
	for _, l := range loads {
		st.Total += l
		if l > st.Max {
			st.Max = l
		}
		if l < st.Min {
			st.Min = l
		}
	}
	st.Mean = float64(st.Total) / float64(len(loads))
	var ss float64
	for _, l := range loads {
		d := float64(l) - st.Mean
		ss += d * d
	}
	st.StdDev = math.Sqrt(ss / float64(len(loads)))
	if st.Mean > 0 {
		st.CV = st.StdDev / st.Mean
		st.MaxOverMean = float64(st.Max) / st.Mean
	}
	st.Gini = gini(loads)
	return st
}

// gini computes the Gini coefficient via the sorted-rank formula.
func gini(loads []int64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]int64(nil), loads...)
	slices.Sort(sorted)
	var cum, weighted float64
	for i, l := range sorted {
		cum += float64(l)
		weighted += float64(i+1) * float64(l)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}

// ComparisonStats summarizes the plan's per-reduce-task comparison
// loads.
func (p *Plan) ComparisonStats() LoadStats {
	return ComputeLoadStats(p.ReduceComparisons)
}

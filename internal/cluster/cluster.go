// Package cluster simulates the cloud environment of the paper's
// evaluation: n nodes, each running a fixed number of map and reduce
// processes (the paper configures 2+2 per EC2 High-CPU Medium instance).
// Each process executes one task at a time; when a task finishes, the
// next pending task is assigned to the freed process — Hadoop's
// slot-based scheduling, modeled as event-driven list scheduling.
//
// Task costs are derived from the analytic plans of internal/core and
// internal/er (which the test suites hold equal to the executing
// engine's per-task metrics) via a CostModel whose constants encode the
// paper's observation that the reduce-side pair comparisons dominate
// (>95% of) the runtime.
package cluster

import (
	"container/heap"
	"fmt"
)

// Config describes the simulated cluster.
type Config struct {
	Nodes              int
	MapSlotsPerNode    int
	ReduceSlotsPerNode int

	// SlotSpeedSpread models hardware heterogeneity and computational
	// skew (EC2 virtualization, varying attribute lengths): slot i runs
	// at a deterministic speed in [1−spread/2, 1+spread/2]. Zero means
	// homogeneous slots. The paper observes that this "computational
	// skew diminishes for larger r" — finer tasks let list scheduling
	// route around slow processes, which is why BlockSplit and PairRange
	// benefit from more reduce tasks in Figure 10.
	SlotSpeedSpread float64
	// Seed makes the slot speeds deterministic per cluster.
	Seed int64
}

// DefaultSlots mirrors the paper's node configuration: at most two map
// and two reduce tasks in parallel per node, with mild (±15%) slot speed
// heterogeneity as measured on EC2-style virtualized hardware.
func DefaultSlots(nodes int) Config {
	return Config{
		Nodes:              nodes,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		SlotSpeedSpread:    0.3,
		Seed:               1,
	}
}

// SlotSpeeds derives the deterministic per-slot speed factors.
func (c Config) SlotSpeeds(slots int) []float64 {
	speeds := make([]float64, slots)
	for i := range speeds {
		u := splitmix(uint64(c.Seed)*0x9e3779b97f4a7c15 + uint64(i+1))
		frac := float64(u>>11) / float64(1<<53) // uniform in [0,1)
		speeds[i] = 1 + c.SlotSpeedSpread*(frac-0.5)
	}
	return speeds
}

// splitmix is the SplitMix64 mixing function: a stateless, deterministic
// pseudo-random permutation used for slot speeds.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes must be > 0, got %d", c.Nodes)
	}
	if c.MapSlotsPerNode <= 0 || c.ReduceSlotsPerNode <= 0 {
		return fmt.Errorf("cluster: slots per node must be > 0, got map=%d reduce=%d",
			c.MapSlotsPerNode, c.ReduceSlotsPerNode)
	}
	return nil
}

// MapSlots returns the total number of map processes in the cluster.
func (c Config) MapSlots() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceSlots returns the total number of reduce processes.
func (c Config) ReduceSlots() int { return c.Nodes * c.ReduceSlotsPerNode }

// CostModel converts task workloads into simulated time units. The
// absolute unit is arbitrary (think microseconds); only ratios matter for
// the reproduced figures.
type CostModel struct {
	// PairCost is charged per entity-pair comparison in a reduce task.
	PairCost float64
	// ReduceRecordCost is charged per key-value pair a reduce task
	// receives (shuffle, sort, deserialization amortized).
	ReduceRecordCost float64
	// MapRecordCost is charged per input record a map task reads.
	MapRecordCost float64
	// MapEmitCost is charged per key-value pair a map task emits
	// (serialization, spill, transfer amortized).
	MapEmitCost float64
	// TaskOverhead is the fixed cost of launching any task.
	TaskOverhead float64
	// JobOverhead is the fixed cost of starting a job (JVM reuse,
	// scheduling, DFS round trips).
	JobOverhead float64
}

// DefaultCostModel is calibrated so that for the evaluation datasets the
// reduce-phase comparisons account for well over 95% of simulated time,
// matching the paper's measurement, while the BDM job and per-job fixed
// overheads stay visible at low skew (the Basic-wins-at-s=0 effect in
// Figure 9) and amount to a few percent of a typical run — the paper's
// 35s BDM job against matching runs of many minutes.
func DefaultCostModel() CostModel {
	return CostModel{
		// One pair comparison (edit distance on a title) is the unit.
		PairCost: 1.0,
		// Shuffling, sorting, and deserializing a reduce-side record is
		// cheaper than a comparison but not free — this is what makes
		// PairRange's larger map output visible at small per-task
		// workloads (Figure 13, DS1 at n=100).
		ReduceRecordCost: 0.5,
		// Reading and emitting map-side records costs a fraction of a
		// comparison (serialization only).
		MapRecordCost: 0.1,
		MapEmitCost:   0.1,
		TaskOverhead:  20,
		JobOverhead:   2000,
	}
}

// MapTaskCost computes the cost of a map task that reads records and
// emits emitted key-value pairs.
func (cm CostModel) MapTaskCost(records, emitted int64) float64 {
	return cm.TaskOverhead + float64(records)*cm.MapRecordCost + float64(emitted)*cm.MapEmitCost
}

// ReduceTaskCost computes the cost of a reduce task that receives records
// key-value pairs and performs comparisons pair comparisons.
func (cm CostModel) ReduceTaskCost(records, comparisons int64) float64 {
	return cm.TaskOverhead + float64(records)*cm.ReduceRecordCost + float64(comparisons)*cm.PairCost
}

// PhaseResult describes the simulated execution of one phase (all map
// tasks or all reduce tasks of a job).
type PhaseResult struct {
	Makespan float64
	// Assignment[i] is the slot that executed task i.
	Assignment []int
}

// ScheduleWithSpeeds runs event-driven list scheduling: tasks are
// assigned in index order, each to the process that frees earliest
// (ties broken by lowest slot index). This reproduces Hadoop's
// behaviour of handing the next pending task to whichever process
// finished first, including the straggler effects the paper's figures
// exhibit. Task duration on slot i is cost/speeds[i]. Slow slots
// naturally receive fewer tasks because they free up later — which is
// why fine-grained workloads (many small reduce tasks) tolerate
// heterogeneity better than coarse ones.
func ScheduleWithSpeeds(costs []float64, speeds []float64) PhaseResult {
	if len(speeds) == 0 {
		panic("cluster: ScheduleWithSpeeds requires at least one slot")
	}
	for i, s := range speeds {
		if s <= 0 {
			panic(fmt.Sprintf("cluster: slot %d has non-positive speed %g", i, s))
		}
	}
	res := PhaseResult{Assignment: make([]int, len(costs))}
	// Min-heap of (freeTime, slotIndex).
	h := make(slotHeap, len(speeds))
	for i := range h {
		h[i] = slotState{free: 0, idx: i}
	}
	heap.Init(&h)
	for i, c := range costs {
		s := heap.Pop(&h).(slotState)
		res.Assignment[i] = s.idx
		s.free += c / speeds[s.idx]
		if s.free > res.Makespan {
			res.Makespan = s.free
		}
		heap.Push(&h, s)
	}
	return res
}

type slotState struct {
	free float64
	idx  int
}

type slotHeap []slotState

func (h slotHeap) Len() int { return len(h) }
func (h slotHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].idx < h[j].idx
}
func (h slotHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)   { *h = append(*h, x.(slotState)) }
func (h *slotHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// JobWorkload captures everything the simulator needs about one MR job:
// per-map-task and per-reduce-task workloads.
type JobWorkload struct {
	Name string
	// MapRecords[i] / MapEmits[i] describe map task i.
	MapRecords []int64
	MapEmits   []int64
	// ReduceRecords[j] / ReduceComparisons[j] describe reduce task j.
	ReduceRecords     []int64
	ReduceComparisons []int64
}

// TotalMapEmits sums the map-output key-value pairs (Figure 12's metric).
func (w JobWorkload) TotalMapEmits() int64 {
	var t int64
	for _, e := range w.MapEmits {
		t += e
	}
	return t
}

// SimulateJob computes the simulated wall-clock time of one job on the
// cluster: job overhead + map-phase makespan + reduce-phase makespan.
// (Hadoop overlaps shuffle with the map phase; the paper's workloads are
// reduce-dominated, so the sequential approximation preserves shapes.)
func SimulateJob(cfg Config, cm CostModel, w JobWorkload) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if len(w.MapRecords) != len(w.MapEmits) {
		return 0, fmt.Errorf("cluster: job %q: MapRecords and MapEmits lengths differ (%d vs %d)",
			w.Name, len(w.MapRecords), len(w.MapEmits))
	}
	if len(w.ReduceRecords) != len(w.ReduceComparisons) {
		return 0, fmt.Errorf("cluster: job %q: ReduceRecords and ReduceComparisons lengths differ (%d vs %d)",
			w.Name, len(w.ReduceRecords), len(w.ReduceComparisons))
	}
	mapCosts := make([]float64, len(w.MapRecords))
	for i := range mapCosts {
		mapCosts[i] = cm.MapTaskCost(w.MapRecords[i], w.MapEmits[i])
	}
	redCosts := make([]float64, len(w.ReduceRecords))
	for j := range redCosts {
		redCosts[j] = cm.ReduceTaskCost(w.ReduceRecords[j], w.ReduceComparisons[j])
	}
	return cm.JobOverhead +
		ScheduleWithSpeeds(mapCosts, cfg.SlotSpeeds(cfg.MapSlots())).Makespan +
		ScheduleWithSpeeds(redCosts, cfg.SlotSpeeds(cfg.ReduceSlots())).Makespan, nil
}

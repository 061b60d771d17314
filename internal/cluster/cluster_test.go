package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// unitSpeeds is a homogeneous cluster of the given number of slots.
func unitSpeeds(slots int) []float64 {
	speeds := make([]float64, slots)
	for i := range speeds {
		speeds[i] = 1
	}
	return speeds
}

func TestScheduleSingleSlot(t *testing.T) {
	res := ScheduleWithSpeeds([]float64{3, 1, 4, 1, 5}, unitSpeeds(1))
	if res.Makespan != 14 {
		t.Errorf("makespan = %g, want 14", res.Makespan)
	}
}

func TestScheduleListOrder(t *testing.T) {
	// Two slots, tasks in order 4,3,2,1: slot0←4, slot1←3, slot1 frees
	// at 3 → gets 2 (→5), slot0 frees at 4 → gets 1 (→5). Makespan 5.
	res := ScheduleWithSpeeds([]float64{4, 3, 2, 1}, unitSpeeds(2))
	if res.Makespan != 5 {
		t.Errorf("makespan = %g, want 5", res.Makespan)
	}
	wantAssign := []int{0, 1, 1, 0}
	for i, w := range wantAssign {
		if res.Assignment[i] != w {
			t.Errorf("task %d on slot %d, want %d", i, res.Assignment[i], w)
		}
	}
}

func TestScheduleStragglerDominates(t *testing.T) {
	// One huge task lower-bounds the makespan regardless of slots —
	// the Basic-strategy effect.
	costs := []float64{100, 1, 1, 1, 1, 1, 1, 1}
	res := ScheduleWithSpeeds(costs, unitSpeeds(8))
	if res.Makespan != 100 {
		t.Errorf("makespan = %g, want 100", res.Makespan)
	}
}

func TestScheduleMoreSlotsNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 1
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = float64(rng.Intn(100) + 1)
		}
		prev := math.Inf(1)
		for slots := 1; slots <= 8; slots *= 2 {
			ms := ScheduleWithSpeeds(costs, unitSpeeds(slots)).Makespan
			if ms > prev+1e-9 {
				t.Fatalf("trial %d: %d slots slower (%g) than fewer (%g)", trial, slots, ms, prev)
			}
			prev = ms
		}
	}
}

// TestScheduleBounds: list scheduling respects the classic bounds
// max(total/slots, maxTask) <= makespan <= total/slots + maxTask.
func TestScheduleBounds(t *testing.T) {
	f := func(raw []uint16, slotsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slotsRaw)%16 + 1
		costs := make([]float64, len(raw))
		var total, maxTask float64
		for i, r := range raw {
			costs[i] = float64(r%1000) + 1
			total += costs[i]
			if costs[i] > maxTask {
				maxTask = costs[i]
			}
		}
		ms := ScheduleWithSpeeds(costs, unitSpeeds(slots)).Makespan
		lower := math.Max(total/float64(slots), maxTask)
		upper := total/float64(slots) + maxTask
		return ms >= lower-1e-6 && ms <= upper+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchedulePanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleWithSpeeds over no slots did not panic")
		}
	}()
	ScheduleWithSpeeds([]float64{1}, nil)
}

func TestConfigSlots(t *testing.T) {
	cfg := DefaultSlots(10)
	if cfg.MapSlots() != 20 || cfg.ReduceSlots() != 20 {
		t.Errorf("DefaultSlots(10) = %d map / %d reduce slots, want 20/20", cfg.MapSlots(), cfg.ReduceSlots())
	}
}

func TestCostModelTaskCosts(t *testing.T) {
	cm := CostModel{PairCost: 2, ReduceRecordCost: 3, MapRecordCost: 5, MapEmitCost: 7, TaskOverhead: 11}
	if got := cm.MapTaskCost(2, 3); got != 11+10+21 {
		t.Errorf("MapTaskCost = %g, want 42", got)
	}
	if got := cm.ReduceTaskCost(4, 5); got != 11+12+10 {
		t.Errorf("ReduceTaskCost = %g, want 33", got)
	}
}

func TestSimulateJob(t *testing.T) {
	cfg := Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2}
	cm := CostModel{PairCost: 1, ReduceRecordCost: 0, MapRecordCost: 1, MapEmitCost: 0, TaskOverhead: 0, JobOverhead: 10}
	w := JobWorkload{
		Name:              "t",
		MapRecords:        []int64{4, 4},
		MapEmits:          []int64{0, 0},
		ReduceRecords:     []int64{0, 0},
		ReduceComparisons: []int64{6, 2},
	}
	got, err := SimulateJob(cfg, cm, w)
	if err != nil {
		t.Fatal(err)
	}
	// Map phase: two 4-cost tasks on two slots = 4; reduce: 6 and 2 on
	// two slots = 6; total = 10 + 4 + 6.
	if got != 20 {
		t.Errorf("simulated time = %g, want 20", got)
	}
}

func TestSimulateJobValidation(t *testing.T) {
	cm := DefaultCostModel()
	if _, err := SimulateJob(Config{}, cm, JobWorkload{}); err == nil {
		t.Error("zero config: want error")
	}
	cfg := DefaultSlots(2)
	bad := JobWorkload{MapRecords: []int64{1}, MapEmits: []int64{1, 2}}
	if _, err := SimulateJob(cfg, cm, bad); err == nil {
		t.Error("mismatched map slices: want error")
	}
	bad2 := JobWorkload{ReduceRecords: []int64{1}, ReduceComparisons: nil}
	if _, err := SimulateJob(cfg, cm, bad2); err == nil {
		t.Error("mismatched reduce slices: want error")
	}
}

func TestWorkloadTotals(t *testing.T) {
	w := JobWorkload{
		MapEmits: []int64{3, 4},
	}
	if w.TotalMapEmits() != 7 {
		t.Errorf("TotalMapEmits = %d", w.TotalMapEmits())
	}
}

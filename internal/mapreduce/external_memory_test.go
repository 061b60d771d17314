package mapreduce_test

// Memory-residency test of the external dataflow: a job whose map
// output (≈48 MB, unshared with the input) is ~50× the spill budget
// must complete with a peak heap far below the typed in-memory engine's
// — the out-of-core promise. The bound is asserted as a ratio (external
// peak < half the typed peak) plus an absolute sanity floor on the
// typed side, which keeps the test robust to GC timing while still
// failing if spilling ever stops relieving memory.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

const (
	memRecordsPerTask = 40_000
	memValuePad       = 280 // bytes per synthetic value
	memSpillBudget    = 1 << 20
)

// syntheticBlowupJob emits memRecordsPerTask ~300-byte records per map
// task from a tiny input — map output dwarfs both input and reduce
// output, isolating shuffle residency.
func syntheticBlowupJob(r int) *mapreduce.Job[int, string, string, int] {
	pad := strings.Repeat("x", memValuePad)
	return &mapreduce.Job[int, string, string, int]{
		Name:           "blowup",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[int, string, string] {
			return &mapreduce.MapperFunc[int, string, string]{
				OnMap: func(ctx *mapreduce.MapContext[int, string, string], seed int) {
					for i := 0; i < memRecordsPerTask; i++ {
						key := fmt.Sprintf("key-%07d", (seed*31+i*17)%50000)
						ctx.Emit(key, pad[:memValuePad-len(key)]+key)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, string, int] {
			return &mapreduce.ReducerFunc[string, string, int]{
				OnReduce: func(ctx *mapreduce.ReduceContext[int], key string, values []mapreduce.Rec[string, string]) {
					ctx.Emit(len(values))
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
		Coding:    mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}
}

// sampleHeapDuring runs fn while sampling runtime.ReadMemStats
// HeapAlloc, returning the observed peak in bytes.
func sampleHeapDuring(fn func()) uint64 {
	var peak atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return peak.Load()
}

func TestExternalShuffleMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-residency test is slow")
	}
	// Tighten the GC so sampled HeapAlloc tracks live bytes instead of
	// accumulation; restore afterwards.
	old := debug.SetGCPercent(50)
	defer debug.SetGCPercent(old)

	const m = 4
	input := make([][]int, m)
	for i := range input {
		input[i] = []int{i}
	}
	job := syntheticBlowupJob(8)

	run := func(e *mapreduce.Engine) (uint64, *mapreduce.Result[int, int]) {
		runtime.GC()
		var res *mapreduce.Result[int, int]
		var err error
		peak := sampleHeapDuring(func() {
			res, err = job.RunContext(context.Background(), e, input)
		})
		if err != nil {
			t.Fatal(err)
		}
		return peak, res
	}

	extPeak, extRes := run(&mapreduce.Engine{
		Parallelism: 4,
		SpillBudget: memSpillBudget,
		TmpDir:      t.TempDir(),
	})
	typedPeak, typedRes := run(&mapreduce.Engine{Parallelism: 4})

	var spilled int64
	for i := range extRes.MapMetrics {
		spilled += extRes.MapMetrics[i].SpillBytesWritten
	}
	t.Logf("map output: %d records/task × %d tasks; spilled %d MB; peak heap typed=%d MB external=%d MB",
		memRecordsPerTask, m, spilled>>20, typedPeak>>20, extPeak>>20)

	// The on-disk shuffle volume must dwarf the budget (the ≥10×
	// out-of-core regime the acceptance criteria name).
	if spilled < 10*memSpillBudget {
		t.Fatalf("spilled only %d bytes, want >= 10x the %d budget", spilled, memSpillBudget)
	}
	// The typed engine holds the whole shuffle on the heap.
	if typedPeak < 30<<20 {
		t.Fatalf("typed peak heap %d MB implausibly low — shuffle no longer resident? (test broken)", typedPeak>>20)
	}
	// The external engine must not: its shuffle residency is bounded by
	// the per-task budget (decoded + encoded batches) and merge
	// buffers, a small constant factor of the budget per worker.
	if extPeak > typedPeak/2 {
		t.Fatalf("external peak heap %d MB not meaningfully below typed %d MB", extPeak>>20, typedPeak>>20)
	}
	// Results must still agree byte-for-byte.
	if fmt.Sprint(typedRes.Output) != fmt.Sprint(extRes.Output) {
		t.Fatal("external output diverges from typed under memory pressure")
	}
}

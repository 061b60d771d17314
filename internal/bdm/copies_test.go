package bdm

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// perCellBytes is the allocation ComputeContext may spend per matrix
// cell beyond the one annotated copy of its input: the numbering table,
// the count arrays, map output, sort and merge of the cell records, and
// the matrix. A cold first run spends more than a run with the engine's
// pools warm, so the bound below holds the minimum of three runs. Here
// it also covers the block-id column Job 1 reads, 4 B a record: on
// amd64 the minimum measured 4.77 MB against a bound of 6.05 MB.
const perCellBytes = 512

// TestComputeContextCopiesInputOnce pins the number of copies Job 1
// makes of its input: one []Annotated of n records, which Job 2 reads
// and whose ids Job 1 counts, plus a per-cell term. A second copy of
// the n records (a wrap for the job and an annotated output beside it)
// is 4 MB here and does not fit under the bound.
func TestComputeContextCopiesInputOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; the bound would flake")
	}
	const n, blocks, m = 100_000, 1000, 4
	es := make([]entity.Entity, n)
	for i := range es {
		// Lowercase three-letter keys: NormalizedPrefix returns them as
		// substrings, so keys allocate nothing. Every block has entities
		// in every partition: blocks × m cells.
		b := i / m * 7919 % blocks
		key := string([]byte{'a' + byte(b/676), 'a' + byte(b/26%26), 'a' + byte(b%26)})
		es[i] = entity.New(fmt.Sprintf("e%06d", i), "title", fmt.Sprintf("%s item %d", key, i))
	}
	parts := entity.SplitRoundRobin(es, m)
	opts := JobOptions{Attr: "title", KeyFunc: blocking.NormalizedPrefix(3), NumReduceTasks: 4, UseCombiner: true}
	eng := &mapreduce.Engine{Parallelism: 1}

	least, cells := ^uint64(0), 0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, _, _, err := ComputeContext(context.Background(), eng, parts, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least, cells = min(least, after.TotalAlloc-before.TotalAlloc), nonZeroCells(x)
	}
	if cells != blocks*m {
		t.Fatalf("%d cells, want %d", cells, blocks*m)
	}
	bound := uint64(n)*uint64(unsafe.Sizeof(Annotated{})) + uint64(cells)*perCellBytes
	if least > bound {
		t.Errorf("ComputeContext allocated %d B over %d entities and %d cells, bound %d B (one annotated copy + %d B per cell)",
			least, n, cells, bound, perCellBytes)
	}
}

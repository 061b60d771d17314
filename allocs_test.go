// Allocation pin for the typed engine's fault-free path: the
// benchmarks in bench_test.go make allocs/op visible, but only fail a
// human reading the numbers. This test fails the build when the typed
// hot paths (bucketing, spill sort, merge, group streaming, pooled
// scratch) regress past an explicit ceiling.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/obs"
)

// typedAllocCeiling is deliberately above the measured steady state
// (~63 allocs per run of the fixed job below) to absorb sync.Pool
// evictions when a GC lands mid-measurement, while still catching the
// failure modes that matter: per-record boxing (any-keyed records cost
// ~6400 on the same job), per-put pool box allocation, and
// append-doubling in the task loops — each of which shows up as
// hundreds of allocs, not tens.
const typedAllocCeiling = 150

// obsAllocCeiling bounds the same job with an Observer attached. The
// tracer records into preallocated slots and every counter is a plain
// atomic, so the enabled path's only extra steady-state allocations
// are the handful of timer/closure values the span helpers capture —
// single digits, absorbed by the shared headroom. The pin documents
// that enabling observability must not change the allocation class of
// the hot path (per-record or per-task costs would add hundreds).
const obsAllocCeiling = typedAllocCeiling + 10

// The pin runs at Parallelism 1 and 4: raising parallelism must not
// raise the allocation count (workers share the pooled scratch).
// Each point runs twice — observability disabled (Obs nil, the default)
// and enabled — so a regression in either path fails the build.
func TestTypedEngineAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is a perf gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; the pin would flake")
	}
	input := shuffleBenchInput(4, 500)
	for _, parallelism := range []int{1, 4} {
		for _, observed := range []bool{false, true} {
			job := shuffleBenchJob(4, true)
			eng := mapreduce.Engine{Parallelism: parallelism}
			ceiling, mode := typedAllocCeiling, "obs disabled"
			if observed {
				// Quiet keeps slog out of the measurement: the pin is
				// about the tracing/metrics hot path, not log rendering.
				eng.Obs = obs.New(obs.Options{Log: obs.Quiet()})
				ceiling, mode = obsAllocCeiling, "obs enabled"
			}
			run := func() {
				if _, err := job.RunContext(context.Background(), &eng, input); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the typed scratch pools (and intern the job name)
			if allocs := testing.AllocsPerRun(10, run); allocs > float64(ceiling) {
				t.Errorf("typed fault-free run (parallelism %d, %s): %.0f allocs, ceiling %d",
					parallelism, mode, allocs, ceiling)
			}
		}
	}
}

// TestJob2RecordSizesPinned pins the widths that bound Job 2's memory:
// every strategy's shuffled record is a 16-byte key code, a key of at
// most 16 bytes and a 32-byte entity.Row. A wider key field or a value
// that carried the entity again would grow every record of a split
// block's replicas.
func TestJob2RecordSizesPinned(t *testing.T) {
	for name, got := range map[string]uintptr{
		"core.BSKey":                            unsafe.Sizeof(core.BSKey{}),
		"core.PRKey":                            unsafe.Sizeof(core.PRKey{}),
		"mapreduce.Rec[string, entity.Row]":     unsafe.Sizeof(mapreduce.Rec[string, entity.Row]{}),
		"mapreduce.Rec[core.BSKey, entity.Row]": unsafe.Sizeof(mapreduce.Rec[core.BSKey, entity.Row]{}),
		"mapreduce.Rec[core.PRKey, entity.Row]": unsafe.Sizeof(mapreduce.Rec[core.PRKey, entity.Row]{}),
	} {
		want := uintptr(64)
		if strings.HasPrefix(name, "core.") {
			want = 16
		}
		if got != want {
			t.Errorf("%s is %d bytes, want %d", name, got, want)
		}
	}
}

// TestBlockKernelAllocsPinned pins the reduce-side comparison path the
// strategy reducers drive, for both kinds of core.Matcher: acquiring
// the matcher's pooled block, loading and probing a whole group through
// core.Block (a self-join, then cross probes that are not kept), and
// releasing it allocates nothing once the pool is warm.
func TestBlockKernelAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; the pin would flake")
	}
	group := []string{
		"canon eos 5d mark iii digital slr camera body",
		"canon eos 5d mark iv digital slr camera body",
		"canon powershot sx740 compact travel zoom",
		"cable hdmi 2m",
		"canon eos 5d mark iii digital slr camera bodies",
		"caméra canon eos 5d mark iii",
		"cable hdmi 3m",
	}
	samePrefix := core.PairFunc(func(a, b string) (float64, bool) {
		return 1, a[:5] == b[:5]
	})
	for _, row := range []struct {
		name string
		m    core.Matcher
	}{
		{"match.EditDistance", match.EditDistance("title", 0.8)},
		{"core.PairFunc", samePrefix},
	} {
		hits := 0
		cycle := func() {
			blk := row.m.AcquireBlock()
			for i, title := range group {
				rows, _ := blk.Probe(title, 0, i, true)
				hits += len(rows)
			}
			for _, title := range group {
				rows, _ := blk.Probe(title, 3, len(group), false)
				hits += len(rows)
			}
			blk.Release()
		}
		cycle()
		if hits == 0 {
			t.Fatalf("%s: the group must produce hits for the pin to cover the hit path", row.name)
		}
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%s: warm acquire/probe/release cycle: %v allocs, want 0", row.name, allocs)
		}
	}
}

// csvRows is a one-attribute CSV of n rows the size of the yardstick's
// (about 37 bytes each).
func csvRows(n int) []byte {
	var b bytes.Buffer
	b.WriteString("id,title\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e%07d,title of the entity %07d\n", i, i)
	}
	return b.Bytes()
}

// TestIngestAllocsPinned pins what makes ingest's cost structural: the
// loader that keeps every row allocates per block of input and per slab
// of attribute arrays, never per row — ten times the rows is at most
// rows/256 + 64 more allocations — and beyond the input's own bytes it
// allocates one Entity and one Attr per row, 72 bytes: no staging copy,
// no per-row string, no doubling.
func TestIngestAllocsPinned(t *testing.T) {
	measure := func(in []byte, rows int) (allocs, size float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ps, err := entity.ReadPartitionsCSV(bytes.NewReader(in), 4)
		runtime.ReadMemStats(&after)
		if err != nil || ps.Total() != rows {
			t.Fatalf("read %d rows, err %v; want %d", ps.Total(), err, rows)
		}
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	const small, large = 10_000, 100_000
	in := csvRows(large)
	smallAllocs, _ := measure(csvRows(small), small)
	largeAllocs, largeBytes := measure(in, large)
	if extra, bound := largeAllocs-smallAllocs, float64(large/256+64); extra > bound {
		t.Errorf("%d rows cost %.0f allocations, %d rows %.0f: %.0f more, want at most %.0f",
			small, smallAllocs, large, largeAllocs, extra, bound)
	}
	if bound := 1.15 * float64(len(in)+large*72); largeBytes > bound {
		t.Errorf("%d rows in %d bytes allocated %.0f bytes, want at most %.0f", large, len(in), largeBytes, bound)
	}
}

package repro_test

// Benchmarks of the out-of-core dataflow: the spill/merge overhead
// versus the in-memory typed engine at several budgets, and an
// end-to-end run on a datagen dataset ≥10× the spill budget reporting
// peak heap (runtime.ReadMemStats sampling). The tracked figure is the
// benchmark/ harness's flat-spill workload; these stay as the
// while-you-work micro view.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// BenchmarkExternalShuffle compares the typed in-memory engine against
// the external dataflow at several spill budgets on the full two-job
// BlockSplit workflow (the honest price of going out-of-core: codec
// encode/decode plus run-file I/O on every spilled record).
func BenchmarkExternalShuffle(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	parts := entity.SplitRoundRobin(es, 4)
	run := func(b *testing.B, eng *mapreduce.Engine) {
		var spilled int64
		for i := 0; i < b.N; i++ {
			res, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), er.Config{
				Strategy:    core.BlockSplit{},
				Attr:        datagen.AttrTitle,
				BlockKey:    datagen.BlockKey(),
				R:           16,
				RunOptions:  er.RunOptions{Engine: eng},
				UseCombiner: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			spilled = 0
			for j := range res.MatchResult.MapMetrics {
				spilled += res.MatchResult.MapMetrics[j].SpillBytesWritten
			}
		}
		b.ReportMetric(float64(spilled)/1024, "spilled-KB/op")
	}
	b.Run("typed", func(b *testing.B) {
		run(b, &mapreduce.Engine{Parallelism: 4})
	})
	for _, budget := range []int64{16 << 10, 64 << 10, 256 << 10} {
		name := "external/budget=" + byteSizeName(budget)
		b.Run(name, func(b *testing.B) {
			run(b, &mapreduce.Engine{
				Parallelism: 4,
				SpillBudget: budget,
				TmpDir:      b.TempDir(),
			})
		})
	}
}

func byteSizeName(n int64) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "m"
	case n >= 1<<10:
		return itoa(n>>10) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkExternalEndToEnd runs the full BlockSplit workflow on a
// datagen dataset whose spilled shuffle volume is ≥10× the budget,
// reporting wall time and sampled peak heap for the in-memory and
// out-of-core engines side by side.
func BenchmarkExternalEndToEnd(b *testing.B) {
	const budget = 16 << 10
	es, _ := datagen.Generate(datagen.DS1Spec(0.1))
	parts := entity.SplitRoundRobin(es, 4)
	run := func(b *testing.B, eng *mapreduce.Engine, wantSpill bool) {
		var peakMB float64
		var spilled int64
		for i := 0; i < b.N; i++ {
			runtime.GC()
			var res *er.Result
			var err error
			peak := samplePeakHeap(func() {
				res, err = er.RunPipeline(context.Background(), er.FromPartitions(parts), er.Config{
					Strategy:    core.BlockSplit{},
					Attr:        datagen.AttrTitle,
					BlockKey:    datagen.BlockKey(),
					R:           16,
					RunOptions:  er.RunOptions{Engine: eng},
					UseCombiner: true,
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			peakMB = float64(peak) / (1 << 20)
			spilled = 0
			for j := range res.MatchResult.MapMetrics {
				spilled += res.MatchResult.MapMetrics[j].SpillBytesWritten
			}
		}
		if wantSpill && spilled < 10*budget {
			b.Fatalf("spilled %d bytes, want >= 10x the %d budget", spilled, budget)
		}
		b.ReportMetric(peakMB, "peak-heap-MB")
	}
	b.Run("typed", func(b *testing.B) {
		run(b, &mapreduce.Engine{Parallelism: 4}, false)
	})
	b.Run("external", func(b *testing.B) {
		run(b, &mapreduce.Engine{
			Parallelism: 4,
			SpillBudget: budget,
			TmpDir:      b.TempDir(),
		}, true)
	})
}

// samplePeakHeap runs fn while sampling HeapAlloc, returning the peak.
func samplePeakHeap(fn func()) uint64 {
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

// BenchmarkRunioCodecs measures the per-record disk codec hot path:
// encode + decode of a typical Job 2 value, an entity's row.
func BenchmarkRunioCodecs(b *testing.B) {
	e := entity.Row{ID: "prod-0001234", Text: "canon powershot sx130is 12.1 mp digital camera"}
	c, ok := runio.Lookup[entity.Row]()
	if !ok {
		b.Fatal("row codec not registered")
	}
	dec := c.NewDecoder()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], e)
		if _, _, err := dec(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

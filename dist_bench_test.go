package repro_test

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/er"
)

// BenchmarkDistRoundTrip runs the two-job BlockSplit pipeline through
// an in-process master and two one-slot workers over loopback HTTP, on
// a flat-shaped input (20,000 random titles over the 17,576 three-letter
// prefixes: many records, few pairs), so what it times is the
// distributed data plane — input blobs out, ERN1 runs served and
// range-read, matches back — and not the kernel. With
// -benchmem its B/op and allocs/op cover master and workers together;
// `make bench-smoke` runs it once so the path cannot rot unseen.
func BenchmarkDistRoundTrip(b *testing.B) {
	parts := entity.SplitRoundRobin(datagen.Exponential(20000, 1, 0, 14), 4)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	master := dist.NewMaster(dist.MasterOptions{Log: quiet})
	if err := master.Start(); err != nil {
		b.Fatal(err)
	}
	defer master.Close()
	const workers = 2
	for i := 0; i < workers; i++ {
		w, err := dist.StartWorker(dist.WorkerOptions{MasterURL: master.URL(), Dir: b.TempDir(), Slots: 1, Log: quiet})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := master.AwaitWorkers(ctx, workers); err != nil {
		b.Fatal(err)
	}
	params := er.DistParams{
		Strategy:    "blocksplit",
		Attr:        datagen.AttrTitle,
		KeyPrefix:   3,
		Threshold:   0.8,
		R:           16,
		UseCombiner: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := er.RunDistributedPipeline(ctx, er.FromPartitions(parts), params,
			er.RunOptions{Parallelism: workers, Master: master, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.MatchResult.Retries != 0 {
			b.Fatalf("%d retried attempts on a fault-free run", res.MatchResult.Retries)
		}
	}
	// The deferred graceful stops can wait out net/http's 5 s grace for
	// a dialed-but-unused connection; that is teardown, not the round trip.
	b.StopTimer()
}

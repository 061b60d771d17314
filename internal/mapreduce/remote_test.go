package mapreduce_test

// Differential tests of the remote-dispatch seam (Engine.Remote)
// against an in-process dispatcher: a distributed run must produce the
// same Result as the plain typed dataflow, a transient dispatch failure
// (a lost worker) must be retried through the normal attempt machinery,
// and ErrNoWorkers must degrade to local execution with a logged
// warning — in every case with a byte-identical Result.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/testleak"
)

func init() {
	// The word-count job's output type, shipped over the dispatcher
	// boundary as codec bytes.
	mapreduce.RegisterPairCodec[string, int]()
}

// localDispatcher executes dispatched attempts in-process through the
// same RemoteRunnable a worker would build, with the run files written
// directly at the master's replica paths. A dispatch fails as a lost
// worker (a transient error) where fail injects a fault at task start;
// down simulates an empty worker pool.
type localDispatcher struct {
	rr   mapreduce.RemoteRunnable
	down bool
	fail mapreduce.FaultHook
}

// dispatch reports how dispatching one attempt fails, if it does.
func (d *localDispatcher) dispatch(ctx context.Context, phase mapreduce.TaskKind, task, attempt int) error {
	if d.down {
		return mapreduce.ErrNoWorkers
	}
	if d.fail != nil {
		if err := d.fail(ctx, phase, task, attempt, mapreduce.FaultTaskStart); err != nil {
			return fmt.Errorf("%s task %d: worker lost: %w", phase, task, err)
		}
	}
	return nil
}

func (d *localDispatcher) RunMapAttempt(ctx context.Context, m, task, attempt int, input []byte, inputCount int, replicaPath string) (*mapreduce.RemoteMapResult, error) {
	if err := d.dispatch(ctx, mapreduce.MapTask, task, attempt); err != nil {
		return nil, err
	}
	return d.rr.ExecRemoteMap(ctx, m, task, attempt, input, inputCount, replicaPath)
}

func (d *localDispatcher) RunReduceAttempt(ctx context.Context, m, task, attempt int, runs []mapreduce.RemoteRun) (*mapreduce.RemoteReduceResult, error) {
	if err := d.dispatch(ctx, mapreduce.ReduceTask, task, attempt); err != nil {
		return nil, err
	}
	var srcs []mapreduce.SegmentSource
	for _, run := range runs {
		if run.Info == nil || run.Info.Segments[task].Records == 0 {
			continue
		}
		f, err := os.Open(run.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		srcs = append(srcs, mapreduce.SegmentSource{R: f, Seg: run.Info.Segments[task], Path: run.Path})
	}
	return d.rr.ExecRemoteReduce(ctx, m, task, attempt, srcs)
}

func TestRemoteDispatchMatchesLocal(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	for _, aggregate := range []bool{false, true} {
		t.Run(fmt.Sprintf("aggregate=%v", aggregate), func(t *testing.T) {
			baseline, err := wordJob(r, aggregate).RunContext(context.Background(), &mapreduce.Engine{}, input)
			if err != nil {
				t.Fatal(err)
			}
			normalize(&baseline.Metrics)
			before := testleak.Snapshot()
			rr, err := mapreduce.NewRemoteRunnable(wordJob(r, aggregate))
			if err != nil {
				t.Fatal(err)
			}
			e := &mapreduce.Engine{Parallelism: 2, TmpDir: t.TempDir(), Remote: &localDispatcher{rr: rr}}
			res, err := wordJob(r, aggregate).RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatal(err)
			}
			testleak.Check(t, before)
			normalize(&res.Metrics)
			if !reflect.DeepEqual(res, baseline) {
				t.Fatal("remote-dispatched run diverges from local typed run")
			}
			if ents, _ := os.ReadDir(e.TmpDir); len(ents) != 0 {
				t.Fatalf("replica dir not cleaned: %v", ents)
			}
		})
	}
}

func TestRemoteDispatchErrorRetried(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	before := testleak.Snapshot()
	rr, err := mapreduce.NewRemoteRunnable(wordJob(r, false))
	if err != nil {
		t.Fatal(err)
	}
	// Every task's first dispatch dies.
	d := &localDispatcher{rr: rr, fail: failFirstAttempt(mapreduce.FaultTaskStart)}
	e := &mapreduce.Engine{Parallelism: 2, TmpDir: t.TempDir(), Remote: d}
	e.Retry.BaseBackoff = 1
	res, err := wordJob(r, false).RunContext(context.Background(), e, input)
	if err != nil {
		t.Fatal(err)
	}
	testleak.Check(t, before)
	if res.Retries != m+r {
		t.Fatalf("Retries = %d, want %d (one lost worker per task)", res.Retries, m+r)
	}
	normalize(&res.Metrics)
	if !reflect.DeepEqual(res, baseline) {
		t.Fatal("run with lost-worker retries diverges from local typed run")
	}
}

func TestRemoteNoWorkersDegradesToLocal(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	before := testleak.Snapshot()
	var logs atomic.Int64
	var lastLog atomic.Value
	e := &mapreduce.Engine{
		Parallelism: 2,
		TmpDir:      t.TempDir(),
		Remote:      &localDispatcher{down: true},
		Log: slog.New(slog.NewTextHandler(writerFunc(func(line []byte) (int, error) {
			logs.Add(1)
			lastLog.Store(string(line))
			return len(line), nil
		}), &slog.HandlerOptions{Level: slog.LevelDebug})),
	}
	res, err := wordJob(r, false).RunContext(context.Background(), e, input)
	if err != nil {
		t.Fatal(err)
	}
	testleak.Check(t, before)
	if logs.Load() == 0 {
		t.Fatal("degrading to local execution logged no warning")
	}
	if msg, _ := lastLog.Load().(string); !strings.Contains(msg, "local") {
		t.Fatalf("degradation warning %q does not mention local execution", msg)
	}
	// Degraded execution must not surface the pool emptiness as an error.
	if errors.Is(err, mapreduce.ErrNoWorkers) {
		t.Fatal("ErrNoWorkers leaked out of a degraded run")
	}
	normalize(&res.Metrics)
	if !reflect.DeepEqual(res, baseline) {
		t.Fatal("degraded-to-local run diverges from local typed run")
	}
}

// writerFunc is an io.Writer that calls itself.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

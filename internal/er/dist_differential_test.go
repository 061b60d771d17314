package er_test

// The distributed differential: the full two-job pipeline dispatched
// over real HTTP to in-process workers must produce an er.Result
// byte-identical to the local typed run — across strategies, and still
// when a worker is SIGKILL-style killed mid-map or mid-reduce (the
// master reassigns through heartbeat/lease revocation and transport
// errors, and reducers fall back to the master's run replicas for dead
// origins). Execution-history counters are zeroed before comparison,
// exactly as in the fault differential.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/testleak"
)

func distTestParams(strat core.Strategy) er.DistParams {
	return er.DistParams{
		Strategy:    strat.Name(),
		Attr:        datagen.AttrTitle,
		KeyPrefix:   3,
		Threshold:   0.8,
		R:           5,
		UseCombiner: true,
	}
}

// localBaseline is the in-process run of the Config the DistParams
// expand to — the same key and matcher functions a worker rebuilds from
// the declarative spec — with its execution history zeroed.
func localBaseline(t *testing.T, parts entity.Partitions, p er.DistParams) *er.Result {
	t.Helper()
	cfg, err := p.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	res, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	zeroHistory(res)
	return res
}

// testLog routes a debug-level slog.TextHandler into the test log.
func testLog(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(logWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// logWriter writes each line the handler renders to t.Log.
type logWriter struct{ t testing.TB }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// startDistMaster starts a master with fast failure detection (50ms
// heartbeats, 250ms lease) and quiet logging.
func startDistMaster(t *testing.T) *dist.Master {
	t.Helper()
	m := dist.NewMaster(dist.MasterOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		LeaseTTL:          250 * time.Millisecond,
		Log:               testLog(t),
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func startDistWorker(t *testing.T, master *dist.Master, opts dist.WorkerOptions) *dist.Worker {
	t.Helper()
	opts.MasterURL = master.URL()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Log == nil {
		opts.Log = testLog(t)
	}
	w, err := dist.StartWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

func TestDistributedDifferential(t *testing.T) {
	parts := entity.SplitRoundRobin(testEntities(150, 3), 4)
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			p := distTestParams(strat)
			baseline := localBaseline(t, parts, p)
			if len(baseline.Matches) == 0 {
				t.Fatal("differential vacuous, no matches")
			}

			// Without a master the entry point is RunPipeline: no
			// listener, no dispatch goroutine, the local result.
			before := testleak.Snapshot()
			local, err := er.RunDistributedPipeline(context.Background(), er.FromPartitions(parts), p, er.RunOptions{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			testleak.Check(t, before)
			zeroHistory(local)
			if !reflect.DeepEqual(local, baseline) {
				t.Fatal("masterless RunDistributedPipeline diverges from local typed run")
			}

			before = testleak.Snapshot()
			master := startDistMaster(t)
			w1 := startDistWorker(t, master, dist.WorkerOptions{Slots: 2})
			w2 := startDistWorker(t, master, dist.WorkerOptions{Slots: 2})
			res, err := er.RunDistributedPipeline(context.Background(), er.FromPartitions(parts), p, er.RunOptions{
				Parallelism: 4,
				Master:      master,
				Workers:     2,
			})
			if err != nil {
				t.Fatal(err)
			}
			w1.Stop()
			w2.Stop()
			master.Close()
			testleak.Check(t, before)
			zeroHistory(res)
			if !reflect.DeepEqual(res, baseline) {
				t.Fatal("distributed pipeline diverges from local typed run")
			}
			// Graceful worker shutdown leaves no run files behind.
			for _, w := range []*dist.Worker{w1, w2} {
				if _, err := os.Stat(w.Dir()); !os.IsNotExist(err) {
					t.Fatalf("worker dir %s survived graceful Stop (stat err %v)", w.Dir(), err)
				}
			}
		})
	}
}

// killOnPhase returns worker options whose TaskStarted hook kills the
// worker (via the pointer set after StartWorker) on its first task of
// the given phase, then parks the attempt until the kill cuts its
// connection — the dispatched task can only ever finish elsewhere.
func killOnPhase(phase string, victim *atomic.Pointer[dist.Worker], killed *atomic.Bool) dist.WorkerOptions {
	var once sync.Once
	return dist.WorkerOptions{
		Slots: 1,
		TaskStarted: func(ctx context.Context, ph string, task, attempt int) {
			if ph != phase {
				return
			}
			once.Do(func() {
				killed.Store(true)
				go victim.Load().Kill()
			})
			<-ctx.Done()
		},
	}
}

func TestDistributedWorkerKillDifferential(t *testing.T) {
	parts := entity.SplitRoundRobin(testEntities(150, 3), 4)
	strat := core.BlockSplit{}
	p := distTestParams(strat)
	baseline := localBaseline(t, parts, p)

	for _, phase := range []string{"map", "reduce"} {
		t.Run("kill-mid-"+phase, func(t *testing.T) {
			before := testleak.Snapshot()
			master := startDistMaster(t)
			survivor := startDistWorker(t, master, dist.WorkerOptions{Slots: 2})
			var victimPtr atomic.Pointer[dist.Worker]
			var killed atomic.Bool
			victimDir := t.TempDir()
			opts := killOnPhase(phase, &victimPtr, &killed)
			opts.Dir = victimDir
			victim := startDistWorker(t, master, opts)
			victimPtr.Store(victim)

			res, err := er.RunDistributedPipeline(context.Background(), er.FromPartitions(parts), p, er.RunOptions{
				Parallelism: 4,
				Master:      master,
				Workers:     2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !killed.Load() {
				t.Fatalf("victim worker never received a %s task; kill differential vacuous", phase)
			}
			survivor.Stop()
			victim.Stop() // no-op after Kill (idempotent shutdown)
			master.Close()
			testleak.Check(t, before)
			zeroHistory(res)
			if !reflect.DeepEqual(res, baseline) {
				t.Fatalf("pipeline with a worker killed mid-%s diverges from local run", phase)
			}
		})
	}
}

// TestDistributedNoWorkersDegradesLocal: a distributed run whose pool
// is empty (none ever registered) must complete locally with the same
// result, not hang or fail.
func TestDistributedNoWorkersDegradesLocal(t *testing.T) {
	parts := entity.SplitRoundRobin(testEntities(150, 3), 4)
	strat := core.PairRange{}
	p := distTestParams(strat)
	baseline := localBaseline(t, parts, p)

	before := testleak.Snapshot()
	master := startDistMaster(t)
	res, err := er.RunDistributedPipeline(context.Background(), er.FromPartitions(parts), p, er.RunOptions{
		Parallelism: 4,
		Master:      master,
	})
	if err != nil {
		t.Fatal(err)
	}
	master.Close()
	testleak.Check(t, before)
	zeroHistory(res)
	if !reflect.DeepEqual(res, baseline) {
		t.Fatal("degraded (workerless) distributed run diverges from local run")
	}
}

// TestDistributedUnknownStrategy: the declarative params reject unknown
// strategy names before any pipeline work happens.
func TestDistributedUnknownStrategy(t *testing.T) {
	p := er.DistParams{Strategy: "sorted-neighborhood", Attr: datagen.AttrTitle, KeyPrefix: 3, R: 4}
	_, err := er.RunDistributedPipeline(context.Background(),
		er.FromPartitions(entity.SplitRoundRobin(testEntities(20, 1), 2)), p, er.RunOptions{})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	want := fmt.Sprintf("unknown strategy %q", p.Strategy)
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("err = %q, want mention of %q", got, want)
	}
}

// TestDistributedBadParams: parameters no pipeline can run are an error
// before any pipeline work happens, not a panic in the driver or in a
// worker expanding the spec.
func TestDistributedBadParams(t *testing.T) {
	for _, p := range []er.DistParams{
		{Strategy: "blocksplit", Attr: datagen.AttrTitle, KeyPrefix: 0, Threshold: 0.8, R: 4},
		{Strategy: "pairrange", Attr: datagen.AttrTitle, KeyPrefix: 3, Threshold: math.NaN(), R: 4},
		{Strategy: "pairrange", Attr: datagen.AttrTitle, KeyPrefix: 3, Threshold: 1.5, R: 4},
		{Strategy: "blocksplit", Attr: datagen.AttrTitle, KeyPrefix: 3, Threshold: -0.1, R: 4},
		{Strategy: "blocksplit", Attr: datagen.AttrTitle, KeyPrefix: 3, Threshold: 0.8, R: 0},
		{Strategy: "pairrange", Attr: datagen.AttrTitle, KeyPrefix: 3, Threshold: 0.8, R: -1},
	} {
		// Both worker builders expand a spec through Config first.
		if _, err := p.Config(); err == nil || !strings.Contains(err.Error(), "must be at least 1") {
			t.Errorf("KeyPrefix %d, Threshold %v, R %d: Config err = %v, want the parameter error", p.KeyPrefix, p.Threshold, p.R, err)
		}
		_, err := er.RunDistributedPipeline(context.Background(),
			er.FromPartitions(entity.SplitRoundRobin(testEntities(20, 1), 2)), p, er.RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "must be at least 1") {
			t.Errorf("KeyPrefix %d, Threshold %v, R %d: err = %v, want the parameter error", p.KeyPrefix, p.Threshold, p.R, err)
		}
	}
}

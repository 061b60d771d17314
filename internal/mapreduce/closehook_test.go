package mapreduce_test

// Tests of the mapper's end-of-input hook (MapCloser) and of the job it
// exists for: the BDM job aggregating in the mapper. The hook must be
// called once per attempt, after the last Map call, wherever the attempt
// runs; what it emits is map output like any other, so a fault on a
// close-time emit fails the attempt and the retry neither loses nor
// double-counts; and the aggregated BDM job's full Result — TaskMetrics
// included — is the same in memory, spilled at any budget, distributed
// and degraded, with one map-output record per non-zero matrix cell.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// closeProbe wraps aggWords and reports how its attempt called it.
type closeProbe struct {
	aggWords
	t      *testing.T
	want   []int // Map calls per partition
	part   int
	maps   int
	closes int
	tally  *probeTally
}

// probeTally counts, over one run, the mappers built (= map attempts
// that got as far as user code) and the Close calls.
type probeTally struct {
	mu              sync.Mutex
	mappers, closes int
}

func (p *closeProbe) Configure(m, r, partitionIndex int) { p.part = partitionIndex }

func (p *closeProbe) Map(ctx *mapreduce.MapContext[string, string, int], line string) {
	if p.closes != 0 {
		p.t.Errorf("partition %d: Map called after Close", p.part)
	}
	p.maps++
	p.aggWords.Map(ctx, line)
}

func (p *closeProbe) Close(ctx *mapreduce.MapContext[string, string, int]) {
	p.closes++
	if p.closes != 1 {
		p.t.Errorf("partition %d: Close called %d times in one attempt", p.part, p.closes)
	}
	if p.maps != p.want[p.part] {
		p.t.Errorf("partition %d: Close after %d Map calls, want after all %d", p.part, p.maps, p.want[p.part])
	}
	p.tally.mu.Lock()
	p.tally.closes++
	p.tally.mu.Unlock()
	p.aggWords.Close(ctx)
}

// wordCount is wordJob's job type.
type wordCount = mapreduce.Job[string, string, int, mapreduce.Pair[string, int]]

// probedWordJob is wordJob(r, true) with every mapper a closeProbe.
func probedWordJob(t *testing.T, r int, input [][]string) (*wordCount, *probeTally) {
	want := make([]int, len(input))
	for i := range input {
		want[i] = len(input[i])
	}
	tally := &probeTally{}
	job := wordJob(r, true)
	job.NewMapper = func() mapreduce.Mapper[string, string, int] {
		tally.mu.Lock()
		tally.mappers++
		tally.mu.Unlock()
		return &closeProbe{aggWords: aggWords{slot: map[string]int{}}, t: t, want: want, tally: tally}
	}
	return job, tally
}

// distinctWords is the number of (task, word) cells of the input: what
// an aggregating word count emits.
func distinctWords(input [][]string) int64 {
	probe := wordJob(1, true)
	var n int64
	for _, part := range input {
		a := probe.NewMapper().(*aggWords)
		for _, line := range part {
			a.Map(nil, line)
		}
		n += int64(len(a.words))
	}
	return n
}

func TestCloseHookOncePerAttemptAfterLastMap(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	distinct := distinctWords(input)
	baseline, err := wordJob(r, false).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	var want *mapreduce.Result[string, mapreduce.Pair[string, int]]
	engines := map[string]func(*wordCount) *mapreduce.Engine{
		"memory":   func(*wordCount) *mapreduce.Engine { return &mapreduce.Engine{} },
		"spill=1":  func(*wordCount) *mapreduce.Engine { return &mapreduce.Engine{SpillBudget: 1, TmpDir: t.TempDir()} },
		"spill=16": func(*wordCount) *mapreduce.Engine { return &mapreduce.Engine{SpillBudget: 16, TmpDir: t.TempDir()} },
		"distributed": func(j *wordCount) *mapreduce.Engine {
			rr, err := mapreduce.NewRemoteRunnable(j)
			if err != nil {
				t.Fatal(err)
			}
			return &mapreduce.Engine{TmpDir: t.TempDir(), Remote: &localDispatcher{rr: rr}}
		},
		"degraded": func(*wordCount) *mapreduce.Engine {
			return &mapreduce.Engine{TmpDir: t.TempDir(), Remote: &localDispatcher{down: true}, Log: obs.Quiet()}
		},
	}
	for name, engine := range engines {
		job, tally := probedWordJob(t, r, input)
		res, err := job.RunContext(context.Background(), engine(job), input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tally.mappers != m || tally.closes != m {
			t.Errorf("%s: %d mappers built, %d Close calls, want %d of each (one per fault-free attempt)", name, tally.mappers, tally.closes, m)
		}
		if res.MapOutputRecords != distinct {
			t.Errorf("%s: MapOutputRecords = %d, want one per (task, word) = %d", name, res.MapOutputRecords, distinct)
		}
		if !reflect.DeepEqual(res.Output, baseline.Output) {
			t.Errorf("%s: aggregating in the mapper changed the job's output", name)
		}
		checkSpilled(t, name, res.MapMetrics)
		normalize(&res.Metrics)
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: Result (TaskMetrics included) diverges from the other residencies\ngot:  %+v\nwant: %+v", name, res, want)
		}
	}
}

// checkSpilled holds a residency's map tasks to its spill budget: at
// "spill=1" every record is a run of its own; at any other budget below
// every map task's encoded output each task spilled at least once; at
// "spill=1048576", above it, none did.
func checkSpilled(t *testing.T, name string, maps []mapreduce.TaskMetrics) {
	t.Helper()
	var budget int64
	if _, err := fmt.Sscanf(name, "spill=%d", &budget); err != nil {
		return
	}
	for _, mt := range maps {
		switch {
		case budget == 1 && mt.SpillRuns != mt.OutputRecords:
			t.Errorf("%s: map task %d spilled %d runs for %d records", name, mt.Index, mt.SpillRuns, mt.OutputRecords)
		case budget < 1<<20 && mt.SpillRuns < 1:
			t.Errorf("%s: map task %d never spilled", name, mt.Index)
		case budget >= 1<<20 && mt.SpillRuns != 0:
			t.Errorf("%s: map task %d spilled %d runs under a budget above its output", name, mt.Index, mt.SpillRuns)
		}
	}
}

// failNthMapEmit fails attempt 1 of every map task on its nth emit. The
// aggregating mappers emit from Close only, so that is a close-time
// emit with n-1 records already buffered (or spilled).
func failNthMapEmit(n int) mapreduce.FaultHook {
	var mu sync.Mutex
	emits := map[int]int{}
	return func(ctx context.Context, phase mapreduce.TaskKind, task, attempt int, point mapreduce.FaultPoint) error {
		if phase != mapreduce.MapTask || attempt != 1 || point != mapreduce.FaultEmit {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if emits[task]++; emits[task] == n {
			return errors.New("injected close-time emit fault")
		}
		return nil
	}
}

func TestCloseEmitFaultRetried(t *testing.T) {
	const m, r = 3, 4
	input := wordInput(m)
	baseline, err := wordJob(r, true).RunContext(context.Background(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&baseline.Metrics)
	for dname, where := range localResidencies {
		t.Run(dname, func(t *testing.T) {
			job, tally := probedWordJob(t, r, input)
			e, _ := engineFor(t, where, nil)
			e.Retry.BaseBackoff = 1
			e.FaultHook = failNthMapEmit(3)
			res, err := job.RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatal(err)
			}
			if res.Retries != m {
				t.Errorf("Retries = %d, want %d (every map task's first attempt fails in Close)", res.Retries, m)
			}
			// The failed attempts entered Close too; it is once per attempt,
			// not once per task.
			if tally.mappers != 2*m || tally.closes != 2*m {
				t.Errorf("%d mappers built, %d Close calls, want %d of each", tally.mappers, tally.closes, 2*m)
			}
			normalize(&res.Metrics)
			if !reflect.DeepEqual(res, baseline) {
				t.Errorf("run retried after a close-time emit fault diverges from the fault-free run\ngot:  %+v\nwant: %+v", res, baseline)
			}
		})
	}
}

// bdmInput is a partitioned catalog of a few dozen blocks, the BDM
// job's input built from it — the block ids of the catalog annotated
// with the keys the tests' JobOptions name — and the ids' key table.
func bdmInput(m int) (entity.Partitions, [][]int32, []string) {
	var es []entity.Entity
	for i := 0; i < 400; i++ {
		// Blocks of uneven size, unevenly spread over the partitions.
		block := (i * 37 % 61) * (i * 11 % 7) % 41
		es = append(es, entity.New(fmt.Sprintf("e%03d", i), "title", fmt.Sprintf("b%02d item %d", block, i)))
	}
	parts := entity.SplitRoundRobin(es, m)
	input, keys := bdm.Annotate(parts, "title", blocking.NormalizedPrefix(3))
	return parts, bdm.BlockIDs(input), keys
}

// matrixOf assembles the matrix a BDM job result describes over keys.
func matrixOf(t *testing.T, res *bdm.JobResult, keys []string, m int) *bdm.Matrix {
	t.Helper()
	x, err := bdm.FromCounts(keys, m, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// nonZeroCells returns the number of non-zero cells of x.
func nonZeroCells(x *bdm.Matrix) int {
	n := 0
	for k := range x.NumBlocks() {
		for p := range x.NumPartitions() {
			if x.SizeIn(k, p) > 0 {
				n++
			}
		}
	}
	return n
}

// TestBDMJobAggregatesInMapperEverywhere: the aggregated BDM job's full
// Result is one and the same in memory, at every spill budget, on
// workers and degraded; its map output is one record per non-zero cell;
// and its matrix is the directly computed one.
func TestBDMJobAggregatesInMapperEverywhere(t *testing.T) {
	const m, r = 3, 5
	parts, input, keys := bdmInput(m)
	direct, err := bdm.FromPartitions(parts, "title", blocking.NormalizedPrefix(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := bdm.JobOptions{Attr: "title", KeyFunc: blocking.NormalizedPrefix(3), NumReduceTasks: r, UseCombiner: true}
	rr, err := mapreduce.NewRemoteRunnable(bdm.Job(opts))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*mapreduce.Engine{
		"memory":      {Parallelism: 2},
		"distributed": {Parallelism: 2, TmpDir: t.TempDir(), Remote: &localDispatcher{rr: rr}},
		"degraded":    {TmpDir: t.TempDir(), Remote: &localDispatcher{down: true}, Log: obs.Quiet()},
	}
	for _, budget := range []int64{1, 8, 48, 1 << 20} {
		engines[fmt.Sprintf("spill=%d", budget)] = &mapreduce.Engine{Parallelism: 2, SpillBudget: budget, TmpDir: t.TempDir()}
	}
	var want *bdm.JobResult
	for name, e := range engines {
		res, err := bdm.Job(opts).RunContext(context.Background(), e, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSpilled(t, name, res.MapMetrics)
		if got, want := int(res.MapOutputRecords), nonZeroCells(direct); got != want {
			t.Errorf("%s: MapOutputRecords = %d, want the %d non-zero cells", name, got, want)
		}
		if !reflect.DeepEqual(matrixOf(t, res, keys, m), direct) {
			t.Errorf("%s: matrix differs from bdm.FromPartitions", name)
		}
		normalize(&res.Metrics)
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: BDM job Result (TaskMetrics included) diverges from the other residencies", name)
		}
	}
}

// TestBDMCloseEmitFaultNeitherLosesNorDoubleCounts: an attempt that dies
// halfway through flushing its count table is superseded whole.
func TestBDMCloseEmitFaultNeitherLosesNorDoubleCounts(t *testing.T) {
	const m, r = 3, 5
	parts, input, keys := bdmInput(m)
	direct, err := bdm.FromPartitions(parts, "title", blocking.NormalizedPrefix(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := bdm.JobOptions{Attr: "title", KeyFunc: blocking.NormalizedPrefix(3), NumReduceTasks: r, UseCombiner: true}
	for name, e := range map[string]*mapreduce.Engine{
		"memory":  {Parallelism: 2},
		"spilled": {Parallelism: 2, SpillBudget: 8, TmpDir: t.TempDir()},
	} {
		e.Retry.BaseBackoff = 1
		e.FaultHook = failNthMapEmit(7)
		res, err := bdm.Job(opts).RunContext(context.Background(), e, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Retries != m {
			t.Errorf("%s: Retries = %d, want %d", name, res.Retries, m)
		}
		if !reflect.DeepEqual(matrixOf(t, res, keys, m), direct) {
			t.Errorf("%s: matrix after close-time faults differs from bdm.FromPartitions", name)
		}
	}
}

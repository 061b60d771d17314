package mapreduce_test

// The engine against the reference (reference_test.go): random jobs over
// random inputs must produce the reference's full Result — output and
// every TaskMetrics field of the differential contract — wherever the
// intermediate records reside. This file also holds what the other
// suites share for that comparison: the residency rows, the engine
// builder, the one execution-history normalizer and the Result check.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// residency is where a run's intermediate records live: the rows of the
// suites' tables.
type residency int

const (
	inMemory residency = iota
	spilling
	distributed
)

// localResidencies are the rows of the fault, cancellation and streaming
// suites, whose hooks fire inside this process. The labels are older
// than the one dataflow ("typed" ran in memory, "external" spilled) and
// stay, so that test names do not change under the CI gates that select
// by them. everywhere adds the dispatched run: the rows of the
// differentials against the reference.
var (
	localResidencies = map[string]residency{"typed": inMemory, "external": spilling}
	everywhere       = map[string]residency{"memory": inMemory, "spilled": spilling, "dispatched": distributed}
)

// tinySpillBudget forces a spill at every match-job record: the
// smallest catalog match-job map task emits ≥ 17 records of ≥ 37
// encoded bytes (key ‖ value), so every such task writes ≥ 17 runs
// (≥ 4 asserted).
const tinySpillBudget = 8

// engineFor builds a Parallelism-2 engine for one residency and returns
// the directory it may write to ("" in memory), whose emptiness callers
// assert afterwards. Spilling engines get a budget of a record or two
// (tinySpillBudget). Only a distributed engine reads rr, the worker-side
// face of the job it is going to run; attempts go to it through an
// in-process dispatcher.
func engineFor(t *testing.T, where residency, rr mapreduce.RemoteRunnable) (*mapreduce.Engine, string) {
	t.Helper()
	e := &mapreduce.Engine{Parallelism: 2}
	switch where {
	case spilling:
		e.SpillBudget, e.TmpDir = tinySpillBudget, t.TempDir()
	case distributed:
		e.TmpDir, e.Remote = t.TempDir(), &localDispatcher{rr: rr}
	}
	return e, e.TmpDir
}

// normalize zeroes the execution-history counters of a Result's
// Metrics — the attempt counters and the spill counters — which record
// how a run executed, not what it computed; the rest compares
// byte-for-byte across residencies, fault schedules and the reference.
func normalize(m *mapreduce.Metrics) {
	m.Attempts, m.Retries = 0, 0
	for _, ms := range [][]mapreduce.TaskMetrics{m.MapMetrics, m.ReduceMetrics} {
		for i := range ms {
			ms[i].SpillRuns, ms[i].SpillBytesWritten, ms[i].SpillBytesRead = 0, 0, 0
		}
	}
}

// assertSpilled checks every map task flushed at least minRuns runs.
func assertSpilled(t *testing.T, name string, ms []mapreduce.TaskMetrics, minRuns int64) {
	t.Helper()
	for i := range ms {
		if ms[i].SpillRuns < minRuns {
			t.Errorf("%s: map task %d spilled %d runs, want >= %d", name, i, ms[i].SpillRuns, minRuns)
		}
		if ms[i].SpillRuns > 0 && ms[i].SpillBytesWritten == 0 {
			t.Errorf("%s: map task %d has runs but no bytes written", name, i)
		}
	}
}

// referencer is the method the test variant of package mapreduce adds to
// Job, as type-erased jobs (core.MatchJob) are asserted to it.
type referencer[I, O any] interface {
	Reference(input [][]I) *mapreduce.Result[I, O]
}

// checkAgainstReference holds an engine Result to the reference's. The
// execution history is cleared on a copy of the engine's side.
func checkAgainstReference[I, O any](t *testing.T, name string, got, want *mapreduce.Result[I, O]) {
	t.Helper()
	norm := *got
	norm.MapMetrics = slices.Clone(got.MapMetrics)
	norm.ReduceMetrics = slices.Clone(got.ReduceMetrics)
	normalize(&norm.Metrics)
	if !reflect.DeepEqual(&norm, want) {
		t.Errorf("%s: Result diverges from the reference\nengine:    %+v\nreference: %+v", name, norm, want)
	}
}

// runs is how checkEverywhere runs a job: at each parallelism, in each
// residency, with at least minRuns spill runs per spilled map task, and
// faulted on the -chaos-seed schedule if chaos is set.
type runs struct {
	pars    []int
	where   map[string]residency
	minRuns int64
	chaos   bool
}

// checkEverywhere runs the job as how says, holds every Result to the
// reference's, which it returns with the retries the runs took, and
// requires each run to leave its directory empty.
func checkEverywhere[I, O any](t *testing.T, name string, job mapreduce.JobRunner[I, O], rr mapreduce.RemoteRunnable, input [][]I, how runs) (*mapreduce.Result[I, O], int64) {
	t.Helper()
	want := job.(referencer[I, O]).Reference(input)
	var retries int64
	for _, par := range how.pars {
		for label, where := range how.where {
			label = fmt.Sprintf("%s/par=%d/%s", name, par, label)
			e, tmp := engineFor(t, where, rr)
			e.Parallelism = par
			if how.chaos {
				// A dispatched attempt's hook points fire on the worker:
				// the dispatcher fails it as a lost worker instead.
				hook := mapreduce.ChaosHook(*chaosSeed, 0.3, 0)
				e.Retry.BaseBackoff, e.FaultHook = 1, hook
				if d, ok := e.Remote.(*localDispatcher); ok {
					d.fail = hook
				}
			}
			got, err := job.RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatalf("%s: chaos=%v chaos-seed=%d: %v", label, how.chaos, *chaosSeed, err)
			}
			if where == spilling {
				assertSpilled(t, label, got.MapMetrics, how.minRuns)
			}
			retries += got.Retries
			checkAgainstReference(t, label, got, want)
			if where != inMemory {
				if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
					t.Fatalf("%s: temp dir not empty after the run: %v (err %v)", label, ents, err)
				}
			}
		}
	}
	return want, retries
}

// randomJob fans each input number out into one to three records under
// three-digit keys "abc". It partitions on a, sorts on the whole key and
// groups on "ab" — coarser than the sort — and its reducer passes each
// group's length and then its records through in arrival order, so the
// output is the merged stream itself, group boundaries included.
func randomJob(r int, coding mapreduce.KeyCoding[string]) *mapreduce.Job[int, string, int, mapreduce.Pair[string, int]] {
	return &mapreduce.Job[int, string, int, mapreduce.Pair[string, int]]{
		Name:           "differential",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[int, string, int] {
			return &mapreduce.MapperFunc[int, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[int, string, int], v int) {
					for i := 0; i < v%3+1; i++ {
						ctx.Emit(fmt.Sprintf("%d%d%d", v%5, (v+i)%7, v%2), v*10+i)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
			return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
					ctx.Emit(mapreduce.Pair[string, int]{Key: key[:2], Value: len(values)})
					for _, v := range values {
						ctx.Emit(mapreduce.Pair[string, int]{Key: v.Key, Value: v.Value})
					}
				},
			}
		},
		Partition: func(key string, r int) int { return int(key[0]-'0') % r },
		Compare:   strings.Compare,
		Group:     func(a, b string) int { return strings.Compare(a[:2], b[:2]) },
		Coding:    coding,
	}
}

func TestEngineAgainstReferenceModel(t *testing.T) {
	codings := map[string]mapreduce.KeyCoding[string]{
		"uncoded": {},
		// The code knows the first digit only — five values for every key
		// there is — so nearly every comparison is a code tie that Compare
		// must settle, and groups are cut by Group.
		"code-ties": {Encode: func(k string) mapreduce.Code { return mapreduce.Code{Hi: uint64(k[0])} }},
		// The code is the whole key and its first two bytes the group.
		"exact": {Encode: mapreduce.StringPrefixCode, Exact: true, GroupBits: 16},
	}
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 40; trial++ {
		m := rng.Intn(5) + 1
		r := rng.Intn(6) + 1
		input := make([][]int, m)
		for i := range input {
			input[i] = make([]int, rng.Intn(30))
			for j := range input[i] {
				input[i][j] = rng.Intn(100)
			}
		}
		for cname, coding := range codings {
			job := randomJob(r, coding)
			rr, err := mapreduce.NewRemoteRunnable(job)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("trial %d (m=%d r=%d %s)", trial, m, r, cname)
			checkEverywhere(t, name, job, rr, input, runs{pars: []int{1, 4}, where: everywhere})
		}
	}
}

// TestPooledRecordBuffersStayZero: the engine recycles its record
// buffers — map-side batches, sorted tails, the reduce-side group
// buffer — and clears only the prefix each holder wrote. Whatever the
// pool holds after a job must still be zero up to its capacity, in
// memory, spilled and dispatched: a record left behind would pin its
// key and value for the life of the process.
func TestPooledRecordBuffersStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	input := make([][]int, 3)
	for i := range input {
		input[i] = make([]int, 500+rng.Intn(500))
		for j := range input[i] {
			input[i][j] = rng.Intn(1000)
		}
	}
	job := randomJob(4, mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode, Exact: true, GroupBits: 16})
	rr, err := mapreduce.NewRemoteRunnable(job)
	if err != nil {
		t.Fatal(err)
	}
	var zero mapreduce.Rec[string, int]
	mapreduce.DrainRecBufs[string, int]()
	for label, where := range everywhere {
		for run := 0; run < 3; run++ {
			e, _ := engineFor(t, where, rr)
			if _, err := job.RunContext(context.Background(), e, input); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		bufs := mapreduce.DrainRecBufs[string, int]()
		if len(bufs) == 0 && !raceEnabled {
			t.Errorf("%s: the runs returned no record buffer to the pool", label)
		}
		for _, b := range bufs {
			if i := slices.IndexFunc(b, func(r mapreduce.Rec[string, int]) bool { return r != zero }); i >= 0 {
				t.Fatalf("%s: pooled buffer of capacity %d holds %+v at %d", label, len(b), b[i], i)
			}
		}
	}
}

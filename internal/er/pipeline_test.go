package er_test

// Pipeline-API tests: streamed sinks must see exactly the collected
// match stream without accumulating it; Sources must reproduce the
// in-memory partition layout; cancellation stops every entry point.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/runio"
	"repro/internal/similarity"
	"repro/internal/testleak"
)

func testMatcher(threshold float64) core.PairFunc {
	return func(a, b string) (float64, bool) {
		sim := similarity.LevenshteinSimilarity(a, b)
		return sim, sim >= threshold
	}
}

func testEntities(n int, seed int64) []entity.Entity {
	return datagen.Generate(datagen.Spec{N: n, Blocks: 12, Alpha: 0.8, DupRate: 0.2, Seed: seed})
}

func baseConfig(strat core.Strategy, par int) er.Config {
	return er.Config{
		RunOptions:  er.RunOptions{Parallelism: par},
		Strategy:    strat,
		Attr:        datagen.AttrTitle,
		BlockKey:    datagen.BlockKey(),
		Matcher:     testMatcher(0.8),
		R:           5,
		UseCombiner: true,
	}
}

// missingKeyBlocker drops the blocking key for part of the dataset so
// a missing-keys run compares ⊥×⊥, ⊥×keyed and blocked pairs.
func missingKeyBlocker(v string) string {
	if len(v) > 0 && v[0]%4 == 0 {
		return ""
	}
	return blocking.NormalizedPrefix(3)(v)
}

// countingSink counts without retaining — the "non-collecting sink" of
// the O(1)-output contract.
type countingSink struct {
	n       int64
	flushes int
}

func (c *countingSink) Consume(core.MatchPair, float64) error { c.n++; return nil }
func (c *countingSink) Flush() error                          { c.flushes++; return nil }

// TestStreamingSinkDoesNotAccumulate is the constant-memory output pin:
// with a non-collecting sink installed, no match is accumulated
// anywhere in the result (Matches nil, MatchResult.Output empty), the
// sink sees exactly the matches a collecting run returns, and all
// metrics stay byte-identical.
func TestStreamingSinkDoesNotAccumulate(t *testing.T) {
	es := testEntities(200, 9)
	parts := entity.SplitRoundRobin(es, 3)
	cfg := baseConfig(core.PairRange{}, 4)
	collected, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	emitted := len(collected.Matches)
	if emitted == 0 {
		t.Fatal("test vacuous: no matches emitted")
	}

	sink := &countingSink{}
	cfg.Sink = sink
	streamed, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Matches != nil {
		t.Fatalf("Matches = %d entries, want nil with a sink installed", len(streamed.Matches))
	}
	if n := len(streamed.MatchResult.Output); n != 0 {
		t.Fatalf("MatchResult.Output holds %d records, want 0 (not accumulated)", n)
	}
	if sink.n != int64(emitted) {
		t.Fatalf("sink consumed %d matches, collecting run returned %d", sink.n, emitted)
	}
	if sink.flushes != 1 {
		t.Fatalf("sink flushed %d times, want 1", sink.flushes)
	}
	if streamed.Comparisons != collected.Comparisons {
		t.Fatalf("comparisons %d != %d", streamed.Comparisons, collected.Comparisons)
	}
	// Full metrics equality: only the collected matches may differ.
	a := *collected
	a.Matches = nil
	if !reflect.DeepEqual(&a, streamed) {
		t.Fatal("streaming run diverges from collecting run beyond the collected matches")
	}
}

// TestCanonicalSinkMatchesCollect: a Canonical sink the caller installs
// holds exactly the matches a run without a sink returns.
func TestCanonicalSinkMatchesCollect(t *testing.T) {
	es := testEntities(150, 13)
	parts := entity.SplitRoundRobin(es, 2)
	cfg := baseConfig(core.BlockSplit{}, 4)
	collected, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon := &er.Canonical{}
	cfg.Sink = canon
	if _, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon.Matches(), collected.Matches) {
		t.Fatalf("Canonical sink = %v, want %v", canon.Matches(), collected.Matches)
	}
}

// TestWriterSinks pins the CSV sink's wire format and counter (unit
// level), then runs a sequential pipeline into it and cross-checks the
// row count against the collecting run.
func TestWriterSinks(t *testing.T) {
	var csvBuf bytes.Buffer
	cs := er.NewCSVSink(&csvBuf)
	if err := cs.Consume(core.MatchPair{A: "a1", B: "b:2"}, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := cs.Consume(core.MatchPair{A: `q"uote`, B: "c,comma"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	wantCSV := "a,b,similarity\na1,b:2,0.5\n\"q\"\"uote\",\"c,comma\",1\n"
	if got := csvBuf.String(); got != wantCSV {
		t.Errorf("csv sink wrote %q, want %q", got, wantCSV)
	}
	if cs.Count() != 2 {
		t.Errorf("count = %d, want 2", cs.Count())
	}

	// A zero-match run must still leave the header (Flush writes it
	// when no Consume has).
	var empty bytes.Buffer
	es0 := er.NewCSVSink(&empty)
	if err := es0.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := empty.String(); got != "a,b,similarity\n" {
		t.Errorf("empty csv sink wrote %q, want header only", got)
	}

	// Pipeline-level: at Parallelism 1 the stream is deterministic; the
	// CSV must hold exactly one row per collected match plus header.
	es := testEntities(120, 17)
	parts := entity.SplitRoundRobin(es, 2)
	cfg := baseConfig(core.Basic{}, 1)
	collected, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg.Sink = er.NewCSVSink(&out)
	if _, err := er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg); err != nil {
		t.Fatal(err)
	}
	gotRows := strings.Count(out.String(), "\n")
	if want := len(collected.Matches) + 1; gotRows != want {
		t.Fatalf("csv rows = %d, want %d", gotRows, want)
	}
}

// TestSources: every Source constructor must reproduce the legacy input
// layout, and source errors must fail the pipeline.
func TestSources(t *testing.T) {
	es := testEntities(50, 19)
	want := entity.SplitRoundRobin(es, 3)

	got, err := er.FromPartitions(want).Partitions()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("FromPartitions: %v / %v", err, got)
	}

	var buf bytes.Buffer
	if err := entity.WriteCSV(&buf, es, []string{datagen.AttrTitle, datagen.AttrBlock}); err != nil {
		t.Fatal(err)
	}
	csvParts, err := er.FromCSV(bytes.NewReader(buf.Bytes()), 3).Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(csvParts) != 3 || csvParts.Total() != len(es) {
		t.Fatalf("FromCSV: %d partitions, %d entities", len(csvParts), csvParts.Total())
	}
	for i, p := range csvParts {
		for j, e := range p {
			if e.ID != want[i][j].ID || e.Attr(datagen.AttrTitle) != want[i][j].Attr(datagen.AttrTitle) {
				t.Fatalf("FromCSV partition %d record %d differs", i, j)
			}
		}
	}

	srcErr := errors.New("generator broke")
	_, err = er.RunPipeline(context.Background(),
		er.SourceFunc(func() (entity.Partitions, error) { return nil, srcErr }),
		baseConfig(core.Basic{}, 1))
	if !errors.Is(err, srcErr) {
		t.Fatalf("source error not propagated: %v", err)
	}
}

// TestPipelineCancelled: a cancelled context aborts the er-level
// pipeline with ctx.Err().
func TestPipelineCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	parts := entity.SplitRoundRobin(testEntities(40, 23), 2)
	before := testleak.Snapshot()
	defer testleak.Check(t, before)
	for name, run := range map[string]func() error{
		"run": func() error {
			_, err := er.RunPipeline(ctx, er.FromPartitions(parts), baseConfig(core.BlockSplit{}, 2))
			return err
		},
		"dual": func() error {
			_, err := er.RunDualPipeline(ctx, er.FromPartitions(parts[:1]), er.FromPartitions(parts[1:]), baseConfig(core.PairRange{}, 2))
			return err
		},
		"missingkeys": func() error {
			cfg := baseConfig(core.BlockSplit{}, 2)
			cfg.BlockKey = missingKeyBlocker
			_, err := er.RunWithMissingKeysPipeline(ctx, er.FromPartitions(parts), cfg)
			return err
		},
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestMissingKeysSinkStreamsDisjointParts: the blocked, ⊥×keyed and ⊥×⊥
// pairs are disjoint parts of one run's stream, so every pair is streamed
// once and a Canonical sink over the stream equals the collected matches.
// The run is one run, so its sink is flushed once and a CSV sink writes
// one header — on mixed input and on the degenerate inputs.
func TestMissingKeysSinkStreamsDisjointParts(t *testing.T) {
	es := testEntities(120, 29)
	keyless := func(string) string { return "" }
	matchAll := core.PairFunc(func(string, string) (float64, bool) { return 1, true })
	for _, c := range []struct {
		name string
		es   []entity.Entity
		key  blocking.KeyFunc
	}{
		{"mixed", es, missingKeyBlocker},
		{"all keyed", es, blocking.NormalizedPrefix(3)},
		{"all keyless", es[:20], keyless},
		{"one keyless alone", es[:1], keyless},
	} {
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
			name := c.name + " " + strat.Name()
			cfg := baseConfig(strat, 2)
			cfg.BlockKey, cfg.Matcher = c.key, matchAll
			parts := entity.SplitRoundRobin(c.es, 3)
			collected, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(parts), cfg)
			if err != nil {
				t.Fatal(err)
			}
			count, canon, csvOut := &countingSink{}, &er.Canonical{}, &bytes.Buffer{}
			for _, sink := range []er.MatchSink{count, canon, er.NewCSVSink(csvOut)} {
				cfg.Sink = sink
				res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(parts), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != nil {
					t.Fatalf("%s: result accumulated matches despite sink", name)
				}
			}
			if count.flushes != 1 || count.n != collected.Comparisons || int64(len(collected.Matches)) != collected.Comparisons {
				t.Errorf("%s: %d flushes, %d pairs streamed, %d collected, %d compared; want 1 flush and every pair once", name, count.flushes, count.n, len(collected.Matches), collected.Comparisons)
			}
			if got := canon.Matches(); len(got) != len(collected.Matches) || len(got) > 0 && !reflect.DeepEqual(got, collected.Matches) {
				t.Errorf("%s: Canonical sink over the stream differs from the collected matches", name)
			}
			if lines := strings.Split(strings.TrimSuffix(csvOut.String(), "\n"), "\n"); lines[0] != "a,b,similarity" || len(lines) != 1+len(collected.Matches) || strings.Count(csvOut.String(), "a,b,similarity") != 1 {
				t.Errorf("%s: CSV sink wrote %d lines, want one header and %d rows", name, len(lines), len(collected.Matches))
			}
			if c.name == "mixed" {
				kinds := map[int]int{}
				byID := map[string]string{}
				for _, e := range c.es {
					byID[e.ID] = c.key(e.Attr(datagen.AttrTitle))
				}
				for _, p := range collected.Matches {
					kinds[min(len(byID[p.A]), 1)+min(len(byID[p.B]), 1)]++
				}
				if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
					t.Errorf("%s: pairs by keyed sides %v, want ⊥×⊥, ⊥×keyed and blocked pairs", name, kinds)
				}
			}
		}
	}
}

// TestPipelineReleasesInput: a run's partitions live only in its
// read-and-annotate step. The annotated rows alias only the entities'
// strings, so once they exist nothing holds the source's partition
// arrays or the entities' attribute slices (on the yardstick's flat
// dataset ~9 MB), and neither job runs with them. Checked for every
// entry point when the first task attempt of the first job starts —
// from the engine's FaultHook in process, from the worker's
// TaskStarted hook when dispatched — by forcing collections until the
// finalizers of each partition's array and of its first entity's
// attributes have run.
func TestPipelineReleasesInput(t *testing.T) {
	// Each case counts into its own counter, so that a partition a
	// failing case kept alive cannot be counted when it dies later.
	var freed *atomic.Int32
	source := func(seed int64) er.Source {
		return er.SourceFunc(func() (entity.Partitions, error) {
			parts, n := entity.SplitRoundRobin(testEntities(200, seed), 3), freed
			for p := range parts {
				runtime.SetFinalizer(&parts[p][0], func(*entity.Entity) { n.Add(1) })
				runtime.SetFinalizer(&parts[p][0].Attrs[0], func(*entity.Attr) { n.Add(1) })
			}
			return parts, nil
		})
	}
	inProcess := func(strat core.Strategy, blockKey blocking.KeyFunc, run func(er.Config) (*er.Result, error)) func(func()) error {
		return func(atStart func()) error {
			cfg := baseConfig(strat, 1)
			if blockKey != nil {
				cfg.BlockKey = blockKey
			}
			cfg.FaultHook = func(_ context.Context, _ mapreduce.TaskKind, _, _ int, point mapreduce.FaultPoint) error {
				if point == mapreduce.FaultTaskStart {
					atStart()
				}
				return nil
			}
			_, err := run(cfg)
			return err
		}
	}
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		sources int32
		run     func(atStart func()) error
	}{
		{"RunPipeline/blocksplit", 1, inProcess(core.BlockSplit{}, nil, func(cfg er.Config) (*er.Result, error) {
			return er.RunPipeline(ctx, source(9), cfg)
		})},
		{"RunPipeline/basic", 1, inProcess(core.Basic{}, nil, func(cfg er.Config) (*er.Result, error) {
			return er.RunPipeline(ctx, source(9), cfg)
		})},
		{"RunDualPipeline", 2, inProcess(core.PairRange{}, nil, func(cfg er.Config) (*er.Result, error) {
			return er.RunDualPipeline(ctx, source(9), source(10), cfg)
		})},
		{"RunWithMissingKeysPipeline", 1, inProcess(core.BlockSplit{}, missingKeyBlocker, func(cfg er.Config) (*er.Result, error) {
			return er.RunWithMissingKeysPipeline(ctx, source(9), cfg)
		})},
		{"RunDistributedPipeline", 1, func(atStart func()) error {
			master := startDistMaster(t)
			startDistWorker(t, master, dist.WorkerOptions{Slots: 1, TaskStarted: func(context.Context, string, int, int) { atStart() }})
			_, err := er.RunDistributedPipeline(ctx, source(9), distTestParams(core.BlockSplit{}), er.RunOptions{Parallelism: 1, Master: master, Workers: 1})
			return err
		}},
	} {
		freed = new(atomic.Int32)
		want := 6 * c.sources
		var once sync.Once
		var checked atomic.Bool
		err := c.run(func() {
			once.Do(func() {
				for i := 0; i < 20 && freed.Load() != want; i++ {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				if got := freed.Load(); got != want {
					t.Errorf("%s: %d of %d partition arrays and attribute slices freed when the first task attempt starts", c.name, got, want)
				}
				checked.Store(true)
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !checked.Load() {
			t.Errorf("%s: no task attempt started", c.name)
		}
	}
}

// TestPipelineRetainsNoBlock: a decoded record aliases one of the
// ~32 KB blocks its segment reader sealed, so whatever outlives a reduce
// call — a BDM count key, a match pair's IDs — must be copied, or one
// retained string pins its whole block. Each strategy runs spilled, and
// BlockSplit once dispatched to an in-process worker; with the Result
// still reachable, forced collections must free every sealed block.
func TestPipelineRetainsNoBlock(t *testing.T) {
	type blocks struct{ sealed, freed atomic.Int64 }
	var cur atomic.Pointer[blocks]
	runio.BlockSealed = func(block string) {
		// The tiny allocator may batch a shorter block with live objects.
		if len(block) < 16 {
			return
		}
		b := cur.Load()
		b.sealed.Add(1)
		runtime.AddCleanup(unsafe.StringData(block), func(b *blocks) { b.freed.Add(1) }, b)
	}
	t.Cleanup(func() { runio.BlockSealed = nil })
	parts := entity.SplitRoundRobin(testEntities(300, 4), 3)
	spilled := func(strat core.Strategy) func() (*er.Result, error) {
		return func() (*er.Result, error) {
			cfg := baseConfig(strat, 1)
			cfg.SpillBudget, cfg.TmpDir = 128, t.TempDir()
			return er.RunPipeline(context.Background(), er.FromPartitions(parts), cfg)
		}
	}
	for _, c := range []struct {
		name string
		run  func() (*er.Result, error)
	}{
		{"basic", spilled(core.Basic{})},
		{"blocksplit", spilled(core.BlockSplit{})},
		{"pairrange", spilled(core.PairRange{})},
		{"dispatched/blocksplit", func() (*er.Result, error) {
			master := startDistMaster(t)
			startDistWorker(t, master, dist.WorkerOptions{Slots: 1})
			return er.RunDistributedPipeline(context.Background(), er.FromPartitions(parts), distTestParams(core.BlockSplit{}),
				er.RunOptions{Parallelism: 1, Master: master, Workers: 1})
		}},
	} {
		b := new(blocks)
		cur.Store(b)
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("%s: no matches, nothing could retain a block", c.name)
		}
		for i := 0; i < 50 && b.freed.Load() != b.sealed.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if b.sealed.Load() == 0 {
			t.Errorf("%s: no block sealed, the run read no spilled run", c.name)
		}
		if freed, sealed := b.freed.Load(), b.sealed.Load(); freed != sealed {
			t.Errorf("%s: %d of %d sealed blocks freed while the Result is reachable", c.name, freed, sealed)
		}
		runtime.KeepAlive(res)
	}
}

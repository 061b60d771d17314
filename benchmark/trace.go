package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/runio"
)

// The traced run. It executes the pipeline ermatch executes, stage by
// stage in this process, and records a span around each call into a
// module's public functions. The program carries no instrumentation of
// the benchmark's: every span is opened and closed in this file.
// README.md lists the functions called here as the pinned surface.

// span is one timed interval. Parent is the id of the span that caused
// it (0 for a root); spans of one repetition share their root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(workload, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: workload, Name: name,
		StartNS: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.origin))
	return time.Duration(s.EndNS - s.StartNS)
}

// childSum adds up the direct children of a span.
func (t *tracer) childSum(id int) time.Duration {
	var sum int64
	for _, s := range t.spans {
		if s.Parent == id {
			sum += s.EndNS - s.StartNS
		}
	}
	return time.Duration(sum)
}

// stagedReps is how often each stage is repeated; the median is reported.
const stagedReps = 3

// spanSumTolerance is how far a repetition's stage spans may fall short
// of its root span: untraced glue between stages is the benchmark's
// own, and more than this would mean a stage is missing from the table.
const spanSumTolerance = 0.02

// stageRep is one repetition of the pipeline stages after ingest.
type stageRep struct {
	total, bdmJob, plan, matchJob, sink time.Duration
	res                                 *er.Result
	out                                 string // the match file written
}

// timedSink accumulates the time spent inside the real sink.
type timedSink struct {
	inner er.MatchSink
	spent time.Duration
}

func (s *timedSink) Consume(p core.MatchPair, sim float64) error {
	start := time.Now()
	err := s.inner.Consume(p, sim)
	s.spent += time.Since(start)
	return err
}

func (s *timedSink) Flush() error {
	start := time.Now()
	err := s.inner.Flush()
	s.spent += time.Since(start)
	return err
}

// layerRun is the state of one workload's traced run.
type layerRun struct {
	t    *tracer
	w    *workload
	csv  string // path of the dataset's CSV file
	dir  string // scratch directory, removed by the caller
	reps int
	// spill is the budget of the external dataflow where the workload
	// (or, for flat-dist, its local comparison run) uses it.
	spill  int64
	strat  core.PreparedStrategy
	outSeq int
}

func strategyOf(name string) core.PreparedStrategy {
	switch name {
	case "basic":
		return core.Basic{}
	case "pairrange":
		return core.PairRange{}
	default:
		return core.BlockSplit{}
	}
}

// runOptions mirrors what ermatch builds from the workload's flags,
// at parallelism 1 so a layer's time is its own.
func (lr *layerRun) runOptions(spill bool) er.RunOptions {
	opts := er.RunOptions{Parallelism: 1}
	if spill {
		opts.SpillBudget = lr.spill
		opts.TmpDir = filepath.Join(lr.dir, "spill")
	}
	return opts
}

// ingest is the entity layer: CSV file to round-robin partitions.
func (lr *layerRun) ingest(parent int) (entity.Partitions, time.Duration, error) {
	id := lr.t.begin(lr.w.name, "entity.ingest", parent)
	parts, err := er.FromCSVFile(lr.csv, mapTasks).Partitions()
	return parts, lr.t.end(id), err
}

// stages runs what follows ingest in er.RunPipeline, one span per
// module: the BDM job (or the inline annotation Basic gets), the plan
// and job build, the match job streaming into a CSV sink, and the
// close and rename ermatch ends with.
func (lr *layerRun) stages(ctx context.Context, parent int, parts entity.Partitions, pm core.PreparedMatcher, opts er.RunOptions) (stageRep, error) {
	var rep stageRep
	start := time.Now()
	eng := opts.ResolveEngine()
	key := blocking.NormalizedPrefix(prefixLen)
	res := &er.Result{}

	var input [][]core.AnnotatedEntity
	if lr.strat.NeedsBDM() {
		id := lr.t.begin(lr.w.name, "bdm.job", parent)
		matrix, side, bdmRes, err := bdm.ComputeContext(ctx, eng, parts, bdm.JobOptions{
			Attr: titleAttr, KeyFunc: key, NumReduceTasks: reduceTasks, UseCombiner: true,
		})
		rep.bdmJob = lr.t.end(id)
		if err != nil {
			return rep, err
		}
		res.BDM, res.BDMResult, input = matrix, bdmRes, side
	} else {
		id := lr.t.begin(lr.w.name, "er.annotate", parent)
		input = er.AnnotateInput(parts, titleAttr, key)
		lr.t.end(id)
	}

	id := lr.t.begin(lr.w.name, "core.plan", parent)
	if res.BDM != nil {
		if _, err := lr.strat.Plan(res.BDM, mapTasks, reduceTasks); err != nil {
			return rep, err
		}
	}
	job, err := lr.strat.JobPrepared(res.BDM, reduceTasks, pm)
	rep.plan = lr.t.end(id)
	if err != nil {
		return rep, err
	}

	id = lr.t.begin(lr.w.name, "er.open", parent)
	outPath, f, err := lr.createOut()
	lr.t.end(id)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	sink := &timedSink{inner: er.NewCSVSink(f)}
	id = lr.t.begin(lr.w.name, "er.match_job", parent)
	res.MatchResult, err = job.RunStream(ctx, eng, input, func(o core.MatchOutput) error {
		return sink.Consume(o.Key, o.Value)
	})
	if err == nil {
		err = sink.Flush()
	}
	rep.matchJob, rep.sink = lr.t.end(id), sink.spent
	if err != nil {
		return rep, err
	}
	res.Comparisons = res.MatchResult.Counter(core.ComparisonsCounter)

	id = lr.t.begin(lr.w.name, "er.finish", parent)
	err = f.Close()
	if err == nil {
		err = os.Rename(outPath+".tmp", outPath)
	}
	lr.t.end(id)
	rep.res, rep.out, rep.total = res, outPath, time.Since(start)
	return rep, err
}

// createOut opens the temp file a repetition streams its matches into,
// as ermatch does beside -out.
func (lr *layerRun) createOut() (string, *os.File, error) {
	lr.outSeq++
	outPath := filepath.Join(lr.dir, fmt.Sprintf("staged-%d.csv", lr.outSeq))
	f, err := os.Create(outPath + ".tmp")
	return outPath, f, err
}

// cluster is an in-process master with two workers over loopback HTTP.
type cluster struct {
	master  *dist.Master
	workers []*dist.Worker
}

func startCluster(dir string) (*cluster, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	c := &cluster{master: dist.NewMaster(dist.MasterOptions{Addr: "127.0.0.1:0", Log: quiet})}
	if err := c.master.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < distWorkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("tw%d", i))
		err := os.MkdirAll(wdir, 0o755) // a worker's run directory must exist
		var wk *dist.Worker
		if err == nil {
			wk, err = dist.StartWorker(dist.WorkerOptions{MasterURL: c.master.URL(), Dir: wdir, Slots: 1, Log: quiet})
		}
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, wk)
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, wk := range c.workers {
		wk.Stop()
	}
	c.master.Close()
}

// distPipeline is the dist layer: the whole two-job pipeline dispatched
// through the cluster, as ermatch -master runs it. Only the total, the
// result and the output path of the returned repetition are set.
func (lr *layerRun) distPipeline(ctx context.Context, parent int, c *cluster, parts entity.Partitions) (stageRep, error) {
	var rep stageRep
	id := lr.t.begin(lr.w.name, "er.open", parent)
	outPath, f, err := lr.createOut()
	lr.t.end(id)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	id = lr.t.begin(lr.w.name, "dist.pipeline", parent)
	rep.res, err = er.RunDistributedPipeline(ctx, er.FromPartitions(parts), er.DistParams{
		Strategy: lr.w.strategy, Attr: titleAttr, KeyPrefix: prefixLen,
		Threshold: threshold, R: reduceTasks, UseCombiner: true,
	}, er.RunOptions{Parallelism: lr.w.parallelism, Master: c.master, Workers: distWorkers, Sink: er.NewCSVSink(f)})
	rep.total = lr.t.end(id)
	if err != nil {
		return rep, err
	}
	id = lr.t.begin(lr.w.name, "er.finish", parent)
	err = f.Close()
	if err == nil {
		err = os.Rename(outPath+".tmp", outPath)
	}
	lr.t.end(id)
	rep.out = outPath
	return rep, err
}

// memDelta is the allocation cost of one repetition.
type memDelta struct{ allocs, bytes uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// stagedSamples is what the repetitions of the staged run measured.
type stagedSamples struct {
	staged, ingest, bdmJob, plan, matchJob, noKernel, kernel, sink []float64
	distTime, localTotal, allocs, allocMB                          []float64
	parts                                                          entity.Partitions
	// last is the final repetition of the run the workload stands for
	// (the distributed one on flat-dist).
	last stageRep
}

// repeatStaged runs the staged pipeline lr.reps times. Each repetition
// is the pipeline with the matcher under a "staged" root span, then
// again with a nil matcher; flat-dist adds the external local pipeline
// its ordinary layers and dist.overhead_s are timed on.
func (lr *layerRun) repeatStaged(ctx context.Context, cal *calibration) (*stagedSamples, error) {
	t, w := lr.t, lr.w
	pm := match.EditDistance(titleAttr, threshold)
	opts := lr.runOptions(w.spillBudget > 0 || w.dist)
	var c *cluster
	if w.dist {
		var err error
		if c, err = startCluster(lr.dir); err != nil {
			return nil, err
		}
		defer c.stop()
	}

	s := &stagedSamples{}
	for rep := 0; rep < lr.reps; rep++ {
		runtime.GC()
		cal.spin()
		before := memNow()
		root := t.begin(w.name, "staged", 0)
		parts, ing, err := lr.ingest(root)
		if err != nil {
			return nil, err
		}
		var sr stageRep
		if w.dist {
			sr, err = lr.distPipeline(ctx, root, c, parts)
			s.distTime = append(s.distTime, sr.total.Seconds())
		} else {
			sr, err = lr.stages(ctx, root, parts, pm, opts)
		}
		if err != nil {
			return nil, err
		}
		total := t.end(root)
		after := memNow()
		if gap := 1 - float64(t.childSum(root))/float64(total); gap > spanSumTolerance {
			return nil, fmt.Errorf("%s: stage spans cover only %.1f %% of the staged run", w.name, 100*(1-gap))
		}
		s.parts, s.last = parts, sr
		s.staged = append(s.staged, total.Seconds())
		s.ingest = append(s.ingest, ing.Seconds())
		s.allocs = append(s.allocs, float64(after.allocs-before.allocs))
		s.allocMB = append(s.allocMB, float64(after.bytes-before.bytes)/1e6)

		if w.dist {
			root := t.begin(w.name, "staged.local", 0)
			sr, err = lr.stages(ctx, root, parts, pm, opts)
			t.end(root)
			if err != nil {
				return nil, err
			}
			s.localTotal = append(s.localTotal, sr.total.Seconds())
		}
		s.bdmJob = append(s.bdmJob, sr.bdmJob.Seconds())
		s.plan = append(s.plan, sr.plan.Seconds())
		s.matchJob = append(s.matchJob, sr.matchJob.Seconds())
		s.sink = append(s.sink, sr.sink.Seconds())

		root = t.begin(w.name, "staged.nokernel", 0)
		nk, err := lr.stages(ctx, root, parts, nil, opts)
		t.end(root)
		if err != nil {
			return nil, err
		}
		s.noKernel = append(s.noKernel, nk.matchJob.Seconds())
		// Paired within the repetition: the two runs are neighbours in
		// time, so a busy spell on the box cancels out of the difference.
		s.kernel = append(s.kernel, (sr.matchJob - nk.matchJob).Seconds())
	}
	return s, nil
}

// traceWorkload runs the staged pipeline and the standalone layer
// passes and returns the per-layer table. The staged run's output must
// pass the checks every child-process iteration passes; wallS is the
// median of the child-process runs the residual is taken against.
func traceWorkload(ctx context.Context, lr *layerRun, d *dataset, digest string, wallS float64, cal *calibration) (map[string]measured, error) {
	lr.strat = strategyOf(lr.w.strategy)
	if err := os.MkdirAll(lr.dir, 0o755); err != nil {
		return nil, err
	}
	s, err := lr.repeatStaged(ctx, cal)
	if err != nil {
		return nil, err
	}
	w, parts, last := lr.w, s.parts, s.last.res
	mr := &last.MatchResult.Metrics
	var matches, heaviest, fetched int64
	for i := range mr.ReduceMetrics {
		matches += mr.ReduceMetrics[i].OutputRecords
		heaviest = max(heaviest, mr.ReduceMetrics[i].Comparisons)
		fetched += mr.ReduceMetrics[i].SpillBytesRead
	}
	matchCSV, err := os.ReadFile(s.last.out)
	if err == nil {
		_, err = checkOutput(d, report{comparisons: last.Comparisons, matches: matches}, matchCSV, digest)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: staged run: %w", w.name, err)
	}

	// A layer the workload does not have reports zero: Basic has no BDM
	// job, only flat-dist has dist.
	m := make(map[string]measured)
	for _, def := range perLayer {
		m[def.name] = count(def.unit, 0)
	}
	entities := float64(d.census.entities)
	csvMB := float64(len(d.csv)) / 1e6

	m["entity.ingest_s"] = sample("s", s.ingest)
	m["entity.ingest_mb_per_s"] = count("MB/s", csvMB/median(s.ingest))
	m["entity.rows"] = count("count", float64(parts.Total()))

	keyNS, err := lr.blockingPass(parts)
	if err != nil {
		return nil, err
	}
	m["blocking.key_ns_per_entity"] = sample("ns", keyNS)

	m["bdm.job_s"] = sample("s", s.bdmJob)
	var spillRuns, spillWritten, spillRead, attempts, retries int64
	if last.BDMResult != nil {
		m["bdm.blocks"] = count("count", float64(last.BDM.NumBlocks()))
		m["bdm.map_output_records"] = count("count", float64(last.BDMResult.MapOutputRecords))
		addSpill(&last.BDMResult.Metrics, &spillRuns, &spillWritten, &spillRead)
		attempts += last.BDMResult.Attempts
		retries += last.BDMResult.Retries
	}
	addSpill(mr, &spillRuns, &spillWritten, &spillRead)
	attempts += mr.Attempts
	retries += mr.Retries

	m["core.plan_s"] = sample("s", s.plan)
	m["core.map_emits"] = count("count", float64(mr.MapOutputRecords))
	m["core.replication"] = count("ratio", float64(mr.MapOutputRecords)/entities)
	m["core.reduce_max_share"] = count("ratio", float64(heaviest)/float64(last.Comparisons))

	m["er.match_job_s"] = sample("s", s.matchJob)
	m["er.match_job_nokernel_s"] = sample("s", s.noKernel)
	m["er.sink_s"] = sample("s", s.sink)
	m["er.matches"] = count("count", float64(matches))
	m["er.allocs"] = sample("count", s.allocs)
	m["er.alloc_mb"] = sample("MB", s.allocMB)
	m["er.staged_wall_s"] = sample("s", s.staged)
	m["er.residual_share"] = count("ratio", (wallS-median(s.staged))/wallS)
	m["similarity.kernel_s"] = sample("s", s.kernel)
	m["similarity.ns_per_pair"] = count("ns", median(s.kernel)*1e9/float64(last.Comparisons))

	shuffle, shuffled, err := lr.shufflePass(ctx, parts)
	if err != nil {
		return nil, err
	}
	m["mapreduce.shuffle_s"] = sample("s", shuffle)
	m["mapreduce.shuffle_records"] = count("count", float64(shuffled))
	m["mapreduce.ns_per_record"] = count("ns", median(shuffle)*1e9/float64(shuffled))

	writeMBs, readMBs, err := lr.runioPass(parts)
	if err != nil {
		return nil, err
	}
	m["runio.spill_runs"] = count("count", float64(spillRuns))
	m["runio.spill_bytes_written"] = count("bytes", float64(spillWritten))
	m["runio.spill_bytes_read"] = count("bytes", float64(spillRead))
	m["runio.spill_amp"] = count("ratio", float64(spillWritten)/float64(len(d.csv)))
	m["runio.write_mb_per_s"] = sample("MB/s", writeMBs)
	m["runio.read_mb_per_s"] = sample("MB/s", readMBs)

	if w.dist {
		m["dist.overhead_s"] = count("s", median(s.distTime)-median(s.localTotal))
		m["dist.fetch_bytes"] = count("bytes", float64(fetched))
		m["dist.attempts"] = count("count", float64(attempts))
		m["dist.retries"] = count("count", float64(retries))
	}
	return m, nil
}

func addSpill(m *mapreduce.Metrics, runs, written, read *int64) {
	for _, tasks := range [][]mapreduce.TaskMetrics{m.MapMetrics, m.ReduceMetrics} {
		for i := range tasks {
			*runs += tasks[i].SpillRuns
			*written += tasks[i].SpillBytesWritten
			*read += tasks[i].SpillBytesRead
		}
	}
}

// keySink keeps the blocking pass's result live.
var keySink string

// blockingPass is the blocking layer alone: the key function over
// every title, ten passes per sample so the clock's grain does not show.
func (lr *layerRun) blockingPass(parts entity.Partitions) ([]float64, error) {
	var titles []string
	for _, p := range parts {
		for _, e := range p {
			titles = append(titles, e.Attr(titleAttr))
		}
	}
	if len(titles) == 0 {
		return nil, errors.New("blocking pass: no entities")
	}
	const passes = 10
	key := blocking.NormalizedPrefix(prefixLen)
	var ns []float64
	for rep := 0; rep < lr.reps; rep++ {
		id := lr.t.begin(lr.w.name, "blocking.key", 0)
		for pass := 0; pass < passes; pass++ {
			for _, title := range titles {
				keySink = key(title)
			}
		}
		ns = append(ns, float64(lr.t.end(id))/float64(passes*len(titles)))
	}
	return ns, nil
}

// shufflePass is the mapreduce layer alone: an identity job over the
// annotated records with built-in string key and value, so key coding,
// bucket sort, k-way merge and grouping run with no strategy and no
// kernel on top. It runs on the dataflow the workload runs on.
func (lr *layerRun) shufflePass(ctx context.Context, parts entity.Partitions) ([]float64, int64, error) {
	type kv = mapreduce.Pair[string, string]
	input := make([][]kv, len(parts))
	for i, p := range parts {
		for _, e := range p {
			title := e.Attr(titleAttr)
			input[i] = append(input[i], kv{Key: blockKey(title), Value: title})
		}
	}
	job := &mapreduce.Job[kv, string, string, kv]{
		Name:           "benchmark-identity",
		NumReduceTasks: reduceTasks,
		NewMapper: func() mapreduce.Mapper[kv, string, string] {
			return &mapreduce.MapperFunc[kv, string, string]{
				OnMap: func(ctx *mapreduce.MapContext[kv, string, string], rec kv) { ctx.Emit(rec.Key, rec.Value) },
			}
		},
		NewReducer: func() mapreduce.Reducer[string, string, kv] {
			return &mapreduce.ReducerFunc[string, string, kv]{
				OnReduce: func(ctx *mapreduce.ReduceContext[kv], _ string, values []mapreduce.Rec[string, string]) {
					ctx.Inc("records", int64(len(values)))
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
		Coding:    mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}
	opts := lr.runOptions(lr.w.spillBudget > 0)
	var secs []float64
	var records int64
	for rep := 0; rep < lr.reps; rep++ {
		id := lr.t.begin(lr.w.name, "mapreduce.shuffle", 0)
		res, err := job.RunContext(ctx, opts.ResolveEngine(), input)
		secs = append(secs, lr.t.end(id).Seconds())
		if err != nil {
			return nil, 0, err
		}
		records = res.MapOutputRecords
		if got := res.Counter("records"); got != records {
			return nil, 0, fmt.Errorf("identity job reduced %d of %d records", got, records)
		}
	}
	return secs, records, nil
}

// runioPass is the runio layer alone: one ERN1 run written and read
// back, holding the workload's records as key ‖ entity.
func (lr *layerRun) runioPass(parts entity.Partitions) (writeMBs, readMBs []float64, err error) {
	keyCodec, okK := runio.Lookup[string]()
	entCodec, okE := runio.Lookup[entity.Entity]()
	if !okK || !okE {
		return nil, nil, errors.New("runio pass: no codec registered for string or entity.Entity")
	}
	buckets := make([][][]byte, reduceTasks)
	for _, p := range parts {
		for _, e := range p {
			key := blockKey(e.Attr(titleAttr))
			r := mapreduce.HashPartition(key, reduceTasks)
			buckets[r] = append(buckets[r], entCodec.Append(keyCodec.Append(nil, key), e))
		}
	}
	for rep := 0; rep < lr.reps; rep++ {
		path := filepath.Join(lr.dir, fmt.Sprintf("pass-%d.ern", rep))
		id := lr.t.begin(lr.w.name, "runio.write", 0)
		w, err := runio.Create(path, reduceTasks, 0)
		if err != nil {
			return nil, nil, err
		}
		for r, recs := range buckets {
			for _, rec := range recs {
				if err := w.Append(r, rec); err != nil {
					w.Abort()
					return nil, nil, err
				}
			}
		}
		info, err := w.Finish()
		wrote := lr.t.end(id)
		if err != nil {
			return nil, nil, err
		}

		id = lr.t.begin(lr.w.name, "runio.read", 0)
		n, err := readRun(info)
		read := lr.t.end(id)
		if err != nil {
			return nil, nil, err
		}
		if n != info.Records {
			return nil, nil, fmt.Errorf("runio pass: read %d of %d records", n, info.Records)
		}
		mb := float64(info.FileBytes) / 1e6
		writeMBs = append(writeMBs, mb/wrote.Seconds())
		readMBs = append(readMBs, mb/read.Seconds())
		if err := os.Remove(path); err != nil {
			return nil, nil, err
		}
	}
	return writeMBs, readMBs, nil
}

func readRun(info *runio.Info) (int64, error) {
	f, err := os.Open(info.Path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int64
	for _, seg := range info.Segments {
		r := runio.NewSegmentReader(f, seg, info.Path)
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

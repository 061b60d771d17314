package er

import (
	"context"
	"fmt"

	"repro/internal/bdm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// RunOptions is the execution plumbing shared by every pipeline entry
// point — one source, two sources and missing keys run the one body
// over it, so the engine, out-of-core spilling, and output streaming
// are configured the same way everywhere.
type RunOptions struct {
	// Parallelism bounds the number of concurrently executing tasks per
	// phase (0 = one goroutine per task, the engine default).
	Parallelism int
	// SpillBudget, when > 0, runs the jobs out of core: a map task
	// spills a sorted run to disk whenever it has buffered this many
	// encoded bytes (see mapreduce.Engine.SpillBudget). 0 keeps every
	// intermediate record in memory.
	SpillBudget int64
	// TmpDir is where a run that spills, or a distributed run that
	// replicates worker output, creates its directory ("" = the system
	// temp dir).
	TmpDir string
	// Sink, when non-nil, receives the matching phase's emitted pairs
	// as a stream instead of having them collected into the result
	// (Result.Matches stays nil), so match-output memory is O(1) in the
	// match count. See MatchSink for the ordering and Flush contract.
	Sink MatchSink
	// Retry configures task attempts, backoff and per-attempt timeouts
	// for the pipeline's jobs (the zero value means engine
	// defaults: see mapreduce.RetryPolicy).
	Retry mapreduce.RetryPolicy
	// FaultHook, when non-nil, is the deterministic fault-injection hook
	// threaded to every job (chaos testing; see mapreduce.ChaosHook).
	FaultHook mapreduce.FaultHook
	// Master, when non-nil, is a started dist master: RunDistributedPipeline
	// dispatches the matching job's tasks through it to registered
	// workers. Nil
	// runs every task in process. Only RunDistributedPipeline reads it,
	// and the caller owns the master's lifetime.
	Master *dist.Master
	// Workers is how many registered workers RunDistributedPipeline
	// waits for on Master before starting the matching job (0 = start
	// immediately; the engine degrades to local execution when none
	// ever register). Ignored when Master is nil.
	Workers int
	// Obs, when non-nil, threads tracing and metrics through the
	// pipeline's engine. Nil keeps every hot path on the zero-overhead
	// disabled branch.
	Obs *obs.Observer
}

// ResolveEngine returns the engine the options describe.
func (o *RunOptions) ResolveEngine() *mapreduce.Engine {
	return &mapreduce.Engine{
		Parallelism: o.Parallelism, Retry: o.Retry, FaultHook: o.FaultHook, Obs: o.Obs,
		SpillBudget: o.SpillBudget, TmpDir: o.TmpDir,
	}
}

// runMatchJob streams a matching job's emissions into sink, which is
// flushed after a successful run. A nil sink is a Canonical whose
// deduplicated, sorted matches are returned; with a sink the returned
// matches are nil. res.Output stays empty either way.
func runMatchJob(ctx context.Context, eng *mapreduce.Engine, job core.MatchJob, input [][]core.AnnotatedEntity, sink MatchSink) (*core.MatchJobResult, []core.MatchPair, error) {
	var canon *Canonical
	if sink == nil {
		canon = &Canonical{}
		sink = canon
	}
	res, err := job.RunStream(ctx, eng, input, func(o core.MatchOutput) error {
		return sink.Consume(o.Key, o.Value)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, nil, err
	}
	if canon == nil {
		return res, nil, nil
	}
	return res, canon.Matches(), nil
}

// RunPipeline executes the full workflow of Figure 2 over the source's
// partitions, annotated once with their blocking keys: Job 1 is the
// annotation's count of the keys, the BDM; Job 2 reads the same
// annotated rows, redistributes them with the configured strategy and
// performs the matching. The Basic strategy needs no BDM and plans on
// none. The partitions themselves are dropped once they are annotated,
// before Job 2 starts (annotate).
//
// Cancelling ctx stops the run between engine tasks and returns an
// error wrapping ctx.Err(); a configured Sink streams the matches (see
// RunOptions.Sink).
func RunPipeline(ctx context.Context, src Source, cfg Config) (*Result, error) {
	return runSource(ctx, src, nil, cfg)
}

// RunDualPipeline executes the two-source (R×S) workflow of Appendix I:
// RunPipeline over R's partitions followed by S's, with the BDM tagging
// each partition's source so that only pairs across the sources are
// compared. The strategy must need the BDM (BlockSplit, PairRange).
func RunDualPipeline(ctx context.Context, srcR, srcS Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	in, err := annotate(&cfg, srcR, srcS)
	if err != nil {
		return nil, err
	}
	sources := make([]bdm.Source, len(in.rows))
	for i := in.firstOf[1]; i < len(sources); i++ {
		sources[i] = bdm.SourceS
	}
	return runPipeline(ctx, in, func(x *bdm.Matrix) (*bdm.Matrix, error) {
		return x.WithSources(sources)
	}, cfg, nil)
}

// RunWithMissingKeysPipeline matches entities without a blocking key
// (Section III): cfg.BlockKey returns "" for them, and each is compared
// with every other entity, keyed or not, while keyed entities are
// compared within their blocks. The paper decomposes this into
// matchB(R−R∅) ∪ match⊥(R∅, R−R∅) ∪ match⊥(R∅); here the BDM turns the
// block of the empty key into the ⊥ row that holds both Cartesian parts
// (bdm.Matrix.WithMissingKeys), so the run is RunPipeline's two jobs
// with one plan. The strategy must need the BDM (BlockSplit, PairRange).
func RunWithMissingKeysPipeline(ctx context.Context, src Source, cfg Config) (*Result, error) {
	return runSource(ctx, src, (*bdm.Matrix).WithMissingKeys, cfg)
}

// runSource validates cfg and runs the one body over src's annotated
// partitions.
func runSource(ctx context.Context, src Source, shape func(*bdm.Matrix) (*bdm.Matrix, error), cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	in, err := annotate(&cfg, src)
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, in, shape, cfg, nil)
}

// annotated is a run's input: the rows of every source's partitions,
// each annotated with its block id, the sorted key table the ids index
// and the rows' count by block and partition (bdm.Annotate). firstOf[i]
// is the first partition of source i.
type annotated struct {
	rows    [][]core.AnnotatedEntity
	keys    []string
	counts  []int
	firstOf []int
}

// annotate is the one step of a run that holds the sources'
// partitions: it reads them, annotates every entity with its block id
// and match text (bdm.Annotate), numbering and counting the keys of all
// sources through one table, and returns the rows, the key table and
// the count alone. The
// rows alias only the entities' strings, so once it returns the
// partition arrays and the entities' attribute slices are garbage, and
// the jobs run without them: the GC paces itself by a smaller live
// heap, and the pages they held are reused instead of new ones being
// faulted in.
func annotate(cfg *Config, srcs ...Source) (annotated, error) {
	var parts entity.Partitions
	firstOf := make([]int, len(srcs))
	for i, src := range srcs {
		p, err := src.Partitions()
		if err != nil {
			return annotated{}, err
		}
		firstOf[i] = len(parts)
		parts = append(parts, p...)
	}
	rows, keys, counts := bdm.Annotate(parts, cfg.Attr, cfg.BlockKey)
	return annotated{rows: rows, keys: keys, counts: counts, firstOf: firstOf}, nil
}

// runPipeline is the body of every entry point, over annotated input;
// shape, when non-nil, turns the counted matrix into the one Job 2
// plans with (source tags, a ⊥ row), and d binds the matching job to a
// dist master (nil = in process).
func runPipeline(ctx context.Context, in annotated, shape func(*bdm.Matrix) (*bdm.Matrix, error), cfg Config, d *dispatch) (*Result, error) {
	input := in.rows
	res := &Result{}

	switch {
	case cfg.Strategy.NeedsBDM():
		matrix, err := bdm.FromCounts(in.keys, len(input), in.counts)
		if err != nil {
			return nil, err
		}
		if err := checkCounted(matrix, input); err != nil {
			return nil, err
		}
		res.BDMResult = bdm.CountResult(matrix)
		if shape != nil {
			if matrix, err = shape(matrix); err != nil {
				return nil, err
			}
		}
		res.BDM = matrix
	case shape != nil:
		return nil, fmt.Errorf("er: %s needs no BDM, so it has no matrix to plan source tags or a ⊥ row on", cfg.Strategy.Name())
	}

	job, err := cfg.Strategy.Job(res.BDM, cfg.R, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	matchEng, done, err := d.bind(cfg.ResolveEngine(), res.BDM)
	if err != nil {
		return nil, err
	}
	matchRes, matches, err := runMatchJob(ctx, matchEng, job, input, cfg.Sink)
	done()
	if err != nil {
		return nil, err
	}
	res.MatchResult = matchRes
	res.Comparisons = matchRes.Counter(core.ComparisonsCounter)
	res.Matches = matches
	return res, nil
}

// PlanMismatchError reports a job whose execution disagrees with the
// plan Job 2 is built on: a figure of one task that the plan fixed in
// advance and the run measured otherwise. Job 2 could then not be
// trusted to compare every pair exactly once, so the run stops.
type PlanMismatchError struct {
	Job      string // the job's name
	Task     int    // the task index (a map task is an input partition)
	Figure   string // what was counted
	Planned  int64  // the plan's value
	Executed int64  // the run's value
}

func (e *PlanMismatchError) Error() string {
	return fmt.Sprintf("er: job %q task %d: %s: planned %d, executed %d", e.Job, e.Task, e.Figure, e.Planned, e.Executed)
}

// checkCounted is Job 1's certificate: Job 2 reads exactly the
// partitions Job 1 counted, so partition p must hold Σ_k SizeIn(k, p)
// entities, the matrix column Job 2's plan assumes.
func checkCounted(x *bdm.Matrix, input [][]core.AnnotatedEntity) error {
	for p := range input {
		var planned int64
		for k := 0; k < x.NumBlocks(); k++ {
			planned += int64(x.SizeIn(k, p))
		}
		if executed := int64(len(input[p])); planned != executed {
			return &PlanMismatchError{Job: "bdm", Task: p, Figure: "entities (Σ_k SizeIn(k, p))", Planned: planned, Executed: executed}
		}
	}
	return nil
}

package er

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bdm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// RunOptions is the execution plumbing shared by every pipeline entry
// point — one-source, two-source and the missing-keys decomposition all
// embed it, so engine selection, out-of-core spilling, and output
// streaming are configured the same way everywhere (previously each
// workflow re-declared these fields).
type RunOptions struct {
	// Engine executes the jobs; nil builds one from the fields below.
	Engine *mapreduce.Engine
	// Parallelism bounds the number of concurrently executing tasks per
	// phase when Engine is nil (0 = one goroutine per task, the engine
	// default). Ignored when Engine is set — configure the engine
	// directly instead.
	Parallelism int
	// SpillBudget, when > 0, runs the jobs out of core: a map task
	// spills a sorted run to disk whenever it has buffered this many
	// encoded bytes (see mapreduce.Engine.SpillBudget). 0 keeps every
	// intermediate record in memory. Ignored when Engine is set.
	SpillBudget int64
	// TmpDir is where a run that spills, or a distributed run that
	// replicates worker output, creates its directory ("" = the system
	// temp dir). Ignored when Engine is set.
	TmpDir string
	// Sink, when non-nil, receives the matching phase's emitted pairs
	// as a stream instead of having them collected into the result
	// (Result.Matches stays nil and MatchResult.Output stays empty), so
	// match-output memory is O(1) in the match count. See MatchSink for
	// the ordering and Flush contract.
	Sink MatchSink
	// Retry configures task attempts, backoff and per-attempt timeouts
	// for the pipeline's jobs (the zero value means engine
	// defaults: see mapreduce.RetryPolicy). Ignored when Engine is set —
	// configure the engine directly instead.
	Retry mapreduce.RetryPolicy
	// FaultHook, when non-nil, is the deterministic fault-injection hook
	// threaded to every job (chaos testing; see mapreduce.ChaosHook).
	// Ignored when Engine is set.
	FaultHook mapreduce.FaultHook
	// Master, when non-nil, is a started dist master: RunDistributedPipeline
	// dispatches both jobs' tasks through it to registered workers. Nil
	// runs every task in process. Only RunDistributedPipeline reads it,
	// and the caller owns the master's lifetime.
	Master *dist.Master
	// Workers is how many registered workers RunDistributedPipeline
	// waits for on Master before starting the first job (0 = start
	// immediately; the engine degrades to local execution when none
	// ever register). Ignored when Master is nil.
	Workers int
	// Obs, when non-nil, threads tracing and metrics through the
	// pipeline's engine. Nil keeps every hot path on the zero-overhead
	// disabled branch. When Engine is set, the engine's own Obs wins if
	// non-nil; otherwise this one is installed on it.
	Obs *obs.Observer
}

// ResolveEngine returns the effective engine: the configured one, or a
// fresh engine built from the option fields.
func (o *RunOptions) ResolveEngine() *mapreduce.Engine {
	if o.Engine != nil {
		if o.Engine.Obs == nil {
			o.Engine.Obs = o.Obs
		}
		return o.Engine
	}
	return &mapreduce.Engine{
		Parallelism: o.Parallelism, Retry: o.Retry, FaultHook: o.FaultHook, Obs: o.Obs,
		SpillBudget: o.SpillBudget, TmpDir: o.TmpDir,
	}
}

// runMatchJob executes a matching job against the configured output
// path: collecting (nil sink — output and canonical matches land in the
// result) or streaming (each emission goes to the
// sink, which is flushed after a successful run; the returned matches
// are nil and res.Output stays empty).
func runMatchJob(ctx context.Context, eng *mapreduce.Engine, job core.MatchJob, input [][]core.AnnotatedEntity, sink MatchSink) (*core.MatchJobResult, []core.MatchPair, error) {
	if sink == nil {
		res, err := job.RunContext(ctx, eng, input)
		if err != nil {
			return nil, nil, err
		}
		return res, CollectMatches(res), nil
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
	return res, nil, nil
}

// RunPipeline executes the full workflow of Figure 2 over the source's
// partitions: Job 1 computes the BDM and side-writes
// blocking-key-annotated entities per partition; Job 2 redistributes
// them with the configured strategy and performs the matching. For the
// Basic strategy only a single job runs (it needs no BDM); its input is
// annotated inline to keep the dataflow identical.
//
// Cancelling ctx stops the run between engine tasks and returns an
// error wrapping ctx.Err(); a configured Sink streams the matches (see
// RunOptions.Sink).
func RunPipeline(ctx context.Context, src Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, parts, nil, cfg, nil)
}

// RunDualPipeline executes the two-source (R×S) workflow of Appendix I:
// RunPipeline over R's partitions followed by S's, with the BDM tagging
// each partition's source so that only pairs across the sources are
// compared. The strategy must need the BDM (BlockSplit, PairRange).
func RunDualPipeline(ctx context.Context, srcR, srcS Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.Strategy.NeedsBDM() {
		return nil, fmt.Errorf("er: %s needs no BDM, so it cannot match two sources", cfg.Strategy.Name())
	}
	partsR, err := srcR.Partitions()
	if err != nil {
		return nil, err
	}
	partsS, err := srcS.Partitions()
	if err != nil {
		return nil, err
	}
	sources := make([]bdm.Source, len(partsR)+len(partsS))
	for i := len(partsR); i < len(sources); i++ {
		sources[i] = bdm.SourceS
	}
	return runPipeline(ctx, slices.Concat(partsR, partsS), sources, cfg, nil)
}

// runPipeline is the body of every entry point; sources tags the
// partitions for two-source matching (nil = one source), and d binds
// the jobs to a dist master (nil = in process).
func runPipeline(ctx context.Context, parts entity.Partitions, sources []bdm.Source, cfg Config, d *dispatch) (*Result, error) {
	eng := cfg.ResolveEngine()
	res := &Result{}

	var job2Input [][]core.AnnotatedEntity
	if cfg.Strategy.NeedsBDM() {
		bdmEng, done, err := d.bind(eng, "er/bdm", nil)
		if err != nil {
			return nil, err
		}
		matrix, side, bdmRes, err := bdm.ComputeContext(ctx, bdmEng, parts, cfg.bdmJobOptions())
		done()
		if err != nil {
			return nil, err
		}
		if sources != nil {
			if matrix, err = matrix.WithSources(sources); err != nil {
				return nil, err
			}
		}
		res.BDM = matrix
		res.BDMResult = bdmRes
		job2Input = side
	} else {
		job2Input = AnnotateInput(parts, cfg.Attr, cfg.BlockKey)
	}

	job, err := cfg.Strategy.Job(res.BDM, cfg.R, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	matchEng, done, err := d.bind(eng, "er/match", res.BDM)
	if err != nil {
		return nil, err
	}
	matchRes, matches, err := runMatchJob(ctx, matchEng, job, job2Input, cfg.Sink)
	done()
	if err != nil {
		return nil, err
	}
	res.MatchResult = matchRes
	res.Comparisons = matchRes.Counter(core.ComparisonsCounter)
	res.Matches = matches
	return res, nil
}

package er

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mapreduce"
	"repro/internal/match"
)

// Distributed execution of the two-job workflow. Job 1, the count, runs
// in the driver, where the annotated rows already are; Job 2 is
// dispatched. A pipeline Config cannot cross a process boundary (it
// carries function values: BlockKey, Matcher), so the distributed entry
// point takes DistParams — a declarative job description both the
// driver and the worker binary expand into the *same* Config — and
// ships it to workers as the job spec, together with the serialized
// BDM. The worker-side builder registered here (er/match) is what
// cmd/erworker executes; any process that imports this package can
// serve er jobs.

// DistParams describes a distributable pipeline run declaratively.
type DistParams struct {
	// Strategy names the redistribution scheme: "basic", "blocksplit",
	// or "pairrange".
	Strategy string `json:"strategy"`
	// Attr is the entity attribute the blocking key is derived from and
	// the one Job 2 matches on (Config.Attr).
	Attr string `json:"attr"`
	// KeyPrefix is the normalized-prefix length of the blocking key
	// (blocking.NormalizedPrefix).
	KeyPrefix int `json:"key_prefix"`
	// Threshold, when in (0,1], matches with the edit-distance matcher at
	// this similarity threshold; 0 counts comparisons without matching.
	// Config refuses any other value.
	Threshold float64 `json:"threshold"`
	// R is the number of reduce tasks of the matching job.
	R int `json:"r"`
	// UseCombiner is ignored: it made the BDM job, which the count in
	// bdm.Annotate replaced, aggregate per map task. It stays in the
	// spec, whose fields master and workers must agree on, until ROADMAP
	// item 27 retires it.
	UseCombiner bool `json:"use_combiner"`
}

// strategy resolves the strategy name.
func (p *DistParams) strategy() (core.Strategy, error) {
	switch strings.ToLower(p.Strategy) {
	case "basic":
		return core.Basic{}, nil
	case "blocksplit":
		return core.BlockSplit{}, nil
	case "pairrange":
		return core.PairRange{}, nil
	default:
		return nil, fmt.Errorf("er: unknown strategy %q (want basic, blocksplit, or pairrange)", p.Strategy)
	}
}

// Config expands the declarative parameters into the pipeline Config —
// the single definition the driver, cmd/ermatch and a worker building
// its jobs from a spec share.
func (p *DistParams) Config() (Config, error) {
	strat, err := p.strategy()
	if err != nil {
		return Config{}, err
	}
	// Checked here, not left to blocking.NormalizedPrefix's panic, to
	// the job's panic on R < 1 or to a threshold that silently matches
	// nothing (above 1) or counts only (below 0): a worker expands specs
	// that arrived over HTTP.
	if p.KeyPrefix < 1 || p.R < 1 || !(p.Threshold >= 0 && p.Threshold <= 1) {
		return Config{}, fmt.Errorf("er: key prefix and r must be at least 1 and threshold in [0,1], got %d, %d and %v", p.KeyPrefix, p.R, p.Threshold)
	}
	cfg := Config{
		Strategy: strat,
		Attr:     p.Attr,
		BlockKey: blocking.NormalizedPrefix(p.KeyPrefix),
		R:        p.R,
	}
	if p.Threshold > 0 {
		cfg.Matcher = match.EditDistance(p.Attr, p.Threshold)
	}
	return cfg, nil
}

// RunDistributedPipeline runs the workflow of Figure 2 over the Config
// the parameters expand to. With opts.Master nil it is RunPipeline.
// With a master it waits for opts.Workers registrations and runs the
// same workflow with the matching job's tasks dispatched to worker
// processes through a master session; the workers rebuild the job from
// the parameters and the BDM. Results are byte-identical either way — the
// distributed differential suite holds this across strategies and
// worker-kill chaos. If every worker dies (or none registers), the
// engine completes the run locally with a logged warning.
func RunDistributedPipeline(ctx context.Context, src Source, p DistParams, opts RunOptions) (*Result, error) {
	cfg, err := p.Config()
	if err != nil {
		return nil, err
	}
	cfg.RunOptions = opts
	if opts.Master == nil {
		return RunPipeline(ctx, src, cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Annotated before the wait, so that ingest overlaps the workers'
	// registration.
	in, err := annotate(&cfg, src)
	if err != nil {
		return nil, err
	}
	if opts.Workers > 0 {
		wctx, cancel := context.WithTimeout(ctx, time.Minute)
		err := opts.Master.AwaitWorkers(wctx, opts.Workers)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	params, err := json.Marshal(&p)
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, in, nil, cfg, &dispatch{master: opts.Master, params: params})
}

// dispatch binds a pipeline's jobs to a dist master; params is the
// run's DistParams as JSON.
type dispatch struct {
	master *dist.Master
	params []byte
}

// bind returns the engine the matching job runs on and a function to
// call once the job is done. In process (d nil) that is eng itself.
// Bound, it is a copy of eng whose Remote is an er/match session,
// closed by done. The spec is the params JSON, a newline, then the BDM
// x in its canonical text serialization (nothing for Basic), verbatim:
// the matrix is most of the spec, and nothing re-escapes or re-scans it
// on the way to bdm.ReadFrom.
func (d *dispatch) bind(eng *mapreduce.Engine, x *bdm.Matrix) (*mapreduce.Engine, func(), error) {
	if d == nil {
		return eng, func() {}, nil
	}
	buf := bytes.NewBuffer(append(slices.Clip(d.params), '\n'))
	if x != nil {
		if _, err := x.WriteTo(buf); err != nil {
			return nil, nil, err
		}
	}
	session := d.master.Session("er/match", buf.Bytes())
	bound := *eng
	bound.Remote = session
	return &bound, session.Close, nil
}

func init() {
	dist.RegisterJob("er/match", func(spec []byte) (mapreduce.RemoteRunnable, error) {
		paramsJSON, bdmText, _ := bytes.Cut(spec, []byte{'\n'})
		var p DistParams
		if err := json.Unmarshal(paramsJSON, &p); err != nil {
			return nil, fmt.Errorf("er/match spec: %w", err)
		}
		cfg, err := p.Config()
		if err != nil {
			return nil, err
		}
		var matrix *bdm.Matrix
		if len(bdmText) > 0 {
			matrix, err = bdm.ReadFrom(bytes.NewReader(bdmText))
			if err != nil {
				return nil, fmt.Errorf("er/match spec BDM: %w", err)
			}
		}
		job, err := cfg.Strategy.Job(matrix, cfg.R, cfg.Matcher)
		if err != nil {
			return nil, err
		}
		return core.RemoteRunnableFor(job)
	})
}

// Package er provides the high-level entity-resolution pipeline: the
// two-job MapReduce workflow of Figure 2 (BDM computation followed by
// the load-balanced matching job), result collection, simulated-time
// accounting, and match-quality metrics.
//
// The pipeline surface is composable: a Source supplies the
// partitioned input (in-memory slices, streaming CSV, generators), a
// MatchSink optionally consumes the match stream without accumulating
// it (constant-memory output), and the RunOptions block embedded by
// every workflow configuration carries the shared engine plumbing. The
// entry points (RunPipeline, RunDualPipeline, RunWithMissingKeysPipeline,
// RunDistributedPipeline) take the caller's context and cancel between
// engine tasks, and all four share one body for the two jobs: two
// sources and missing keys only shape the matrix Job 2 plans with.
// RunDistributedPipeline takes a declarative DistParams and dispatches
// both jobs to workers when RunOptions.Master is set, and is RunPipeline
// over DistParams.Config when it is not. See DESIGN.md, "Pipeline API".
package er

import (
	"fmt"
	"slices"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entity"
)

// Config configures a pipeline run.
type Config struct {
	// RunOptions is the execution plumbing (engine, parallelism,
	// out-of-core spilling, match sink) shared by every workflow.
	RunOptions

	// Strategy selects the redistribution scheme (core.Basic{},
	// core.BlockSplit{}, core.PairRange{}).
	Strategy core.Strategy
	// Attr is the entity attribute the blocking key is derived from,
	// and the one Job 2 matches on: bdm.Annotate puts its text in every
	// row, and the Matcher compares those texts.
	Attr string
	// BlockKey derives the blocking key from the attribute value.
	BlockKey blocking.KeyFunc
	// Matcher decides the pairs of each reduce group of the matching
	// job: match.EditDistance for the paper's rule, or a core.PairFunc
	// for any per-pair function. nil counts comparisons without
	// comparing.
	Matcher core.Matcher
	// R is the number of reduce tasks of the matching job (and of the
	// BDM job).
	R int
	// UseCombiner makes the BDM job aggregate per map task (the paper's
	// footnote 2; bdm.JobOptions.UseCombiner).
	UseCombiner bool
}

func (c *Config) validate() error {
	switch {
	case c.Strategy == nil:
		return fmt.Errorf("er: Config.Strategy is required")
	case c.BlockKey == nil:
		return fmt.Errorf("er: Config.BlockKey is required")
	case c.R <= 0:
		return fmt.Errorf("er: Config.R must be > 0, got %d", c.R)
	}
	return nil
}

// bdmJobOptions configures Job 1: the BDM job over the blocking key,
// with as many reduce tasks as the matching job.
func (c *Config) bdmJobOptions() bdm.JobOptions {
	return bdm.JobOptions{Attr: c.Attr, KeyFunc: c.BlockKey, NumReduceTasks: c.R, UseCombiner: c.UseCombiner}
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Matches holds the deduplicated match pairs in canonical order.
	Matches []core.MatchPair
	// Comparisons is the total number of pair comparisons performed by
	// the matching job's reduce phase.
	Comparisons int64
	// BDM is the block distribution matrix (nil for Basic), source-tagged
	// for a two-source run and with a ⊥ row for a missing-keys run.
	BDM *bdm.Matrix
	// BDMResult / MatchResult expose the raw outputs and per-task
	// metrics of the two jobs (BDMResult is nil for Basic).
	BDMResult   *bdm.JobResult
	MatchResult *core.MatchJobResult
}

// Workloads converts the run's metrics into cluster-simulator workloads,
// in execution order (BDM job first when present).
func (r *Result) Workloads() []cluster.JobWorkload {
	var ws []cluster.JobWorkload
	if r.BDMResult != nil {
		ws = append(ws, cluster.WorkloadFromResult(&r.BDMResult.Metrics))
	}
	ws = append(ws, cluster.WorkloadFromResult(&r.MatchResult.Metrics))
	return ws
}

// SimulatedTime runs the cluster simulator over the run's workloads and
// returns the total simulated execution time.
func (r *Result) SimulatedTime(cfg cluster.Config, cm cluster.CostModel) (float64, error) {
	var total float64
	for _, w := range r.Workloads() {
		jr, err := cluster.SimulateJob(cfg, cm, w)
		if err != nil {
			return 0, err
		}
		total += jr.Time
	}
	return total, nil
}

// AnnotateInput converts raw partitions into the blocking-key-annotated
// records Job 2 consumes: bdm.Annotate, the records Job 1 counts.
func AnnotateInput(parts entity.Partitions, attr string, key blocking.KeyFunc) [][]core.AnnotatedEntity {
	return bdm.Annotate(parts, attr, key)
}

// CollectMatches extracts, deduplicates, and sorts the match pairs from
// a matching job's output. (BlockSplit replicates entities of split
// blocks, but every pair is still compared exactly once, so duplicates
// can only arise from user matchers emitting on reflexive inputs;
// deduplication keeps the result canonical regardless.)
func CollectMatches(res *core.MatchJobResult) []core.MatchPair {
	seen := make(map[core.MatchPair]bool, len(res.Output))
	out := make([]core.MatchPair, 0, len(res.Output))
	for _, rec := range res.Output {
		if !seen[rec.Key] {
			seen[rec.Key] = true
			out = append(out, rec.Key)
		}
	}
	SortMatches(out)
	return out
}

// SortMatches orders pairs lexicographically for deterministic output.
func SortMatches(ps []core.MatchPair) {
	slices.SortFunc(ps, core.CompareMatchPairs)
}

// SerialMatch is the reference implementation the property tests compare
// against: group entities by blocking key and compare the attr texts of
// all pairs within each block with a simple nested loop — attr is both
// the blocking and the match attribute, as in the pipeline. A nil match
// counts only.
func SerialMatch(entities []entity.Entity, attr string, key blocking.KeyFunc, match core.PairFunc) ([]core.MatchPair, int64) {
	blocks := make(map[string][]entity.Entity)
	for _, e := range entities {
		k := key(e.Attr(attr))
		blocks[k] = append(blocks[k], e)
	}
	var pairs []core.MatchPair
	var comparisons int64
	for _, block := range blocks {
		for i := 0; i < len(block); i++ {
			for j := i + 1; j < len(block); j++ {
				comparisons++
				if match == nil {
					continue
				}
				if _, ok := match(block[i].Attr(attr), block[j].Attr(attr)); ok {
					pairs = append(pairs, core.NewMatchPair(block[i].ID, block[j].ID))
				}
			}
		}
	}
	SortMatches(pairs)
	return pairs, comparisons
}

// SerialMatchDual is the two-source reference: compare every R entity
// with every S entity sharing the same blocking key.
func SerialMatchDual(r, s []entity.Entity, attr string, key blocking.KeyFunc, match core.PairFunc) ([]core.MatchPair, int64) {
	blocksR := make(map[string][]entity.Entity)
	for _, e := range r {
		k := key(e.Attr(attr))
		blocksR[k] = append(blocksR[k], e)
	}
	var pairs []core.MatchPair
	var comparisons int64
	for _, es := range s {
		k := key(es.Attr(attr))
		for _, er := range blocksR[k] {
			comparisons++
			if match == nil {
				continue
			}
			if _, ok := match(er.Attr(attr), es.Attr(attr)); ok {
				pairs = append(pairs, core.NewMatchPair(er.ID, es.ID))
			}
		}
	}
	SortMatches(pairs)
	return pairs, comparisons
}

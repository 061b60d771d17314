// Package er provides the high-level entity-resolution pipeline: the
// two-job workflow of Figure 2 (the BDM count, taken where the input is
// annotated, followed by the load-balanced MapReduce matching job), and
// the analytic workloads of both jobs that the cluster simulator reads
// (planmode.go).
//
// The pipeline surface is composable: a Source supplies the
// partitioned input (in-memory partitions, a CSV file or reader, a
// function), the match job always streams its pairs into a MatchSink —
// the caller's, which keeps nothing (constant-memory output), or a
// Canonical that becomes Result.Matches — and the RunOptions block
// embedded by every workflow configuration builds the engine. The
// entry points (RunPipeline, RunDualPipeline, RunWithMissingKeysPipeline,
// RunDistributedPipeline) take the caller's context and cancel between
// engine tasks, and all four share one body for the two jobs: two
// sources and missing keys only shape the matrix Job 2 plans with.
// RunDistributedPipeline takes a declarative DistParams and dispatches
// the matching job to workers when RunOptions.Master is set, and is
// RunPipeline over DistParams.Config when it is not. See DESIGN.md, "Pipeline API".
package er

import (
	"fmt"
	"slices"

	"repro/internal/bdm"
	"repro/internal/blocking"
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
	// R is the number of reduce tasks of the matching job.
	R int
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

// Result is the outcome of one pipeline run.
type Result struct {
	// Matches holds the deduplicated match pairs in canonical order;
	// nil when RunOptions.Sink received them instead.
	Matches []core.MatchPair
	// Comparisons is the total number of pair comparisons performed by
	// the matching job's reduce phase.
	Comparisons int64
	// BDM is the block distribution matrix (nil for Basic), source-tagged
	// for a two-source run and with a ⊥ row for a missing-keys run.
	BDM *bdm.Matrix
	// BDMResult records Job 1's count (bdm.CountResult; nil for Basic),
	// and MatchResult exposes the matching job's raw output and per-task
	// metrics.
	BDMResult   *bdm.JobResult
	MatchResult *core.MatchJobResult
}

// AnnotateInput converts raw partitions into the block-id-annotated
// records Job 2 consumes: bdm.Annotate's rows, without the key table
// and the count.
func AnnotateInput(parts entity.Partitions, attr string, key blocking.KeyFunc) [][]core.AnnotatedEntity {
	input, _, _ := bdm.Annotate(parts, attr, key)
	return input
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

package er

import (
	"fmt"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
)

// DualConfig configures a two-source (R×S) pipeline run (Appendix I).
type DualConfig struct {
	// RunOptions is the execution plumbing (engine, parallelism,
	// out-of-core spilling, match sink) shared by every workflow.
	RunOptions

	Strategy core.DualStrategy
	Attr     string
	BlockKey blocking.KeyFunc
	Matcher  core.Matcher
	// PreparedMatcher, when non-nil, takes precedence over Matcher; see
	// Config.PreparedMatcher.
	PreparedMatcher core.PreparedMatcher
	R               int
}

func (c *DualConfig) validate() error {
	switch {
	case c.Strategy == nil:
		return fmt.Errorf("er: DualConfig.Strategy is required")
	case c.BlockKey == nil:
		return fmt.Errorf("er: DualConfig.BlockKey is required")
	case c.R <= 0:
		return fmt.Errorf("er: DualConfig.R must be > 0, got %d", c.R)
	}
	return nil
}

// DualResult is the outcome of a two-source run.
type DualResult struct {
	Matches     []core.MatchPair
	Comparisons int64
	BDM         *bdm.DualMatrix
	MatchResult *core.MatchJobResult
}

// buildDualMatchJob selects the dual matching job's matcher path (the
// two-source analogue of buildMatchJob).
func buildDualMatchJob(cfg DualConfig, x *bdm.DualMatrix) (core.MatchJob, error) {
	if cfg.PreparedMatcher != nil {
		if ps, ok := cfg.Strategy.(core.PreparedDualStrategy); ok {
			return ps.JobPrepared(x, cfg.R, cfg.PreparedMatcher)
		}
		return cfg.Strategy.Job(x, cfg.R, core.PlainMatcher(cfg.PreparedMatcher))
	}
	return cfg.Strategy.Job(x, cfg.R, cfg.Matcher)
}

// SerialMatchDual is the two-source reference: compare every R entity
// with every S entity sharing the same blocking key.
func SerialMatchDual(r, s []entity.Entity, attr string, key blocking.KeyFunc, match core.Matcher) ([]core.MatchPair, int64) {
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
			if _, ok := match(er, es); ok {
				pairs = append(pairs, core.NewMatchPair(er.ID, es.ID))
			}
		}
	}
	SortMatches(pairs)
	return pairs, comparisons
}

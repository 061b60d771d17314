package sn

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

// Multi-pass Sorted Neighborhood — the actual subject of the cited CSRD
// 2011 paper — runs several SN passes with different sorting keys and
// unions their match results: a duplicate pair is found if it falls
// within the window of *any* pass. Each pass is an independent MR
// workflow; the driver deduplicates the union.

// Pass is one sorting pass.
type Pass struct {
	// Name identifies the pass in diagnostics.
	Name string
	// Attr is the attribute the sorting key is derived from.
	Attr string
	// Key derives the sorting key.
	Key KeyFunc
}

// MultiConfig configures a multi-pass SN run. Window, R, Matcher,
// PreparedMatcher, and the embedded RunOptions apply to every pass. A
// configured Sink receives each pass's raw match stream (a pair inside
// several passes' windows repeats, mirroring Comparisons counting it
// per pass); without a sink the union is deduplicated into Matches.
type MultiConfig struct {
	er.RunOptions

	Passes  []Pass
	Window  int
	R       int
	Matcher core.Matcher
	// PreparedMatcher, when non-nil, takes precedence over Matcher in
	// every pass; see Config.PreparedMatcher.
	PreparedMatcher core.PreparedMatcher
}

// MultiResult aggregates the passes.
type MultiResult struct {
	// Matches is the deduplicated union over all passes.
	Matches []core.MatchPair
	// Comparisons sums the window comparisons of all passes; a pair in
	// two passes' windows is compared twice (the inherent multi-pass
	// overhead; the paper's related-work section makes the same point
	// about signature-based approaches).
	Comparisons int64
	// PerPass exposes each pass's result in order.
	PerPass []*Result
}

// RunMultiPassPipeline executes all passes over the source's partitions
// and unions the matches (or streams them; see MultiConfig).
func RunMultiPassPipeline(ctx context.Context, src er.Source, cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Passes) == 0 {
		return nil, fmt.Errorf("sn: RunMultiPass requires at least one pass")
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	out := &MultiResult{}
	seen := make(map[core.MatchPair]bool)
	for _, pass := range cfg.Passes {
		res, err := RunPipeline(ctx, er.FromPartitions(parts), Config{
			RunOptions:      cfg.RunOptions,
			Attr:            pass.Attr,
			Key:             pass.Key,
			Window:          cfg.Window,
			R:               cfg.R,
			Matcher:         cfg.Matcher,
			PreparedMatcher: cfg.PreparedMatcher,
		})
		if err != nil {
			return nil, fmt.Errorf("sn: pass %q: %w", pass.Name, err)
		}
		out.PerPass = append(out.PerPass, res)
		out.Comparisons += res.Comparisons
		for _, p := range res.Matches {
			if !seen[p] {
				seen[p] = true
				out.Matches = append(out.Matches, p)
			}
		}
	}
	er.SortMatches(out.Matches)
	return out, nil
}

// SerialMultiPass is the reference: the union of the serial SN results
// of every pass.
func SerialMultiPass(entities []entity.Entity, passes []Pass, window int, match core.Matcher) []core.MatchPair {
	seen := make(map[core.MatchPair]bool)
	var out []core.MatchPair
	for _, pass := range passes {
		pairs, _ := Serial(entities, pass.Attr, pass.Key, window, match)
		for _, p := range pairs {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	er.SortMatches(out)
	return out
}

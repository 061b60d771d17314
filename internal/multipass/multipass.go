// Package multipass implements multi-pass blocking, the extension the
// paper names as future work ("we will extend our approaches to
// multi-pass blocking that assigns multiple blocks per entity").
//
// With multi-pass blocking an entity belongs to one block per pass
// (e.g., pass 1: title prefix, pass 2: manufacturer), raising recall:
// two duplicates are compared if they agree on *any* pass. The naive
// realization compares a pair once per shared block; this package uses
// the standard least-common-block-key rule to keep the match result
// duplicate-free and to skip the redundant expensive comparisons: a pair
// is evaluated only in the lexicographically smallest block key the two
// entities share.
//
// The mechanism composes with all of the paper's load-balancing
// strategies unchanged: each entity is replicated once per distinct
// blocking key before Job 1, so the BDM, BlockSplit, and PairRange see
// an ordinary (if larger) one-key-per-entity input.
package multipass

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

// Attribute names used on the expanded replicas. The separator is an
// ASCII unit separator, which cannot appear in sane blocking keys.
const (
	// AttrKey carries the replica's own blocking key.
	AttrKey = "__mp_key"
	// AttrAllKeys carries the entity's full sorted key set.
	AttrAllKeys = "__mp_keys"

	keySep = "\x1f"
)

// Pass derives one blocking key from one attribute.
type Pass struct {
	// Name identifies the pass in diagnostics.
	Name string
	// Attr is the entity attribute the key is derived from.
	Attr string
	// Key derives the blocking key; an empty result means the entity
	// has no key in this pass (and is simply not blocked by it).
	Key blocking.KeyFunc
}

// Keys returns the entity's distinct, sorted blocking keys over all
// passes. Empty keys are dropped.
func Keys(e entity.Entity, passes []Pass) []string {
	seen := make(map[string]bool, len(passes))
	keys := make([]string, 0, len(passes))
	for _, p := range passes {
		k := p.Key(e.Attr(p.Attr))
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Expand replicates every entity once per distinct blocking key. Each
// replica keeps the entity's ID and attributes and additionally carries
// AttrKey (its block for this replica) and AttrAllKeys (the full key
// set, needed by the least-common-key rule). Entities with no key in
// any pass are dropped — callers that must match them against everything
// should use er.RunWithMissingKeys-style decomposition instead.
func Expand(parts entity.Partitions, passes []Pass) entity.Partitions {
	out := make(entity.Partitions, len(parts))
	for pi, part := range parts {
		expanded := make(entity.Partition, 0, len(part))
		for _, e := range part {
			keys := Keys(e, passes)
			if len(keys) == 0 {
				continue
			}
			all := strings.Join(keys, keySep)
			for _, k := range keys {
				expanded = append(expanded, e.WithAttr(AttrKey, k).WithAttr(AttrAllKeys, all))
			}
		}
		out[pi] = expanded
	}
	return out
}

// LeastCommonKey returns the lexicographically smallest blocking key two
// replicas share, or "" when they share none. Both key sets are sorted,
// so a linear merge suffices.
func LeastCommonKey(allA, allB string) string {
	ka := strings.Split(allA, keySep)
	kb := strings.Split(allB, keySep)
	i, j := 0, 0
	for i < len(ka) && j < len(kb) {
		switch {
		case ka[i] == kb[j]:
			return ka[i]
		case ka[i] < kb[j]:
			i++
		default:
			j++
		}
	}
	return ""
}

// WrapMatcher applies the least-common-block-key rule around an inner
// matcher: within block k, a candidate pair is forwarded to the inner
// matcher only if k is the smallest key the two entities share. All
// other co-occurrences are redundant — they would re-evaluate (and
// re-emit) the same pair. The skipped candidates still count as
// redistribution work (they were shuffled and buffered), which is
// exactly the multi-pass overhead the paper's related work discusses.
func WrapMatcher(inner core.Matcher) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		block := a.Attr(AttrKey)
		if lck := LeastCommonKey(a.Attr(AttrAllKeys), b.Attr(AttrAllKeys)); lck != block {
			return 0, false
		}
		if inner == nil {
			return 0, false
		}
		return inner(a, b)
	}
}

// WrapPreparedMatcher is the prepare-once form of WrapMatcher: the
// replica's block key and key set are captured at preparation time
// (once per reduce group), so the least-common-key filter costs no
// attribute lookups on the per-pair path, and the inner matcher's
// prepared forms are reused across all of the replica's comparisons.
func WrapPreparedMatcher(inner core.PreparedMatcher) core.PreparedMatcher {
	return &lckPrepared{inner: inner}
}

type lckPrepared struct {
	inner core.PreparedMatcher
}

type lckPreparedEntity struct {
	block   string
	allKeys string
	inner   core.PreparedEntity
}

func (w *lckPrepared) Prepare(e entity.Entity) core.PreparedEntity {
	return lckPreparedEntity{
		block:   e.Attr(AttrKey),
		allKeys: e.Attr(AttrAllKeys),
		inner:   w.inner.Prepare(e),
	}
}

func (w *lckPrepared) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	pa, pb := a.(lckPreparedEntity), b.(lckPreparedEntity)
	if lck := LeastCommonKey(pa.allKeys, pb.allKeys); lck != pa.block {
		return 0, false
	}
	return w.inner.MatchPrepared(pa.inner, pb.inner)
}

// ReleasePrepared implements core.PreparedReleaser by forwarding to the
// inner matcher's free list when it has one.
func (w *lckPrepared) ReleasePrepared(p core.PreparedEntity) {
	if rel, ok := w.inner.(core.PreparedReleaser); ok {
		rel.ReleasePrepared(p.(lckPreparedEntity).inner)
	}
}

// Config configures a multi-pass run.
type Config struct {
	Passes   []Pass
	Strategy core.Strategy
	Matcher  core.Matcher
	// PreparedMatcher, when non-nil, takes precedence over Matcher: the
	// pipeline runs the prepare-once kernel with the least-common-key
	// rule applied on prepared forms (WrapPreparedMatcher).
	PreparedMatcher core.PreparedMatcher
	R               int
	// Engine and UseCombiner are forwarded to the underlying pipeline.
	ErConfig er.Config
}

// RunPipeline executes the full load-balanced multi-pass workflow over
// the source's partitions: expand the input (one replica per entity and
// key), run the two-job pipeline with the replica key as blocking key,
// and deduplicate matches via the least-common-key rule. The rule
// rejects every redundant co-occurrence before the matcher fires, so a
// streaming sink (ErConfig.Sink) sees each match exactly once.
func RunPipeline(ctx context.Context, src er.Source, cfg Config) (*er.Result, error) {
	if len(cfg.Passes) == 0 {
		return nil, fmt.Errorf("multipass: at least one pass is required")
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("multipass: Config.Strategy is required")
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	expanded := Expand(parts, cfg.Passes)
	ec := cfg.ErConfig
	ec.Strategy = cfg.Strategy
	ec.Attr = AttrKey
	ec.BlockKey = blocking.Identity()
	if cfg.PreparedMatcher != nil {
		ec.Matcher = nil
		ec.PreparedMatcher = WrapPreparedMatcher(cfg.PreparedMatcher)
	} else {
		ec.Matcher = WrapMatcher(cfg.Matcher)
		ec.PreparedMatcher = nil
	}
	ec.R = cfg.R
	return er.RunPipeline(ctx, er.FromPartitions(expanded), ec)
}

// SerialMatch is the multi-pass reference implementation: for each pair
// of entities sharing at least one blocking key, evaluate the matcher
// exactly once. Returns the sorted match pairs and the number of
// distinct candidate pairs.
func SerialMatch(entities []entity.Entity, passes []Pass, match core.Matcher) ([]core.MatchPair, int64) {
	blocks := make(map[string][]int)
	keysOf := make([][]string, len(entities))
	for i, e := range entities {
		keysOf[i] = Keys(e, passes)
		for _, k := range keysOf[i] {
			blocks[k] = append(blocks[k], i)
		}
	}
	seen := make(map[[2]int]bool)
	var pairs []core.MatchPair
	var candidates int64
	for _, members := range blocks {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				i, j := members[a], members[b]
				if i > j {
					i, j = j, i
				}
				if seen[[2]int{i, j}] {
					continue
				}
				seen[[2]int{i, j}] = true
				candidates++
				if match == nil {
					continue
				}
				if _, ok := match(entities[i], entities[j]); ok {
					pairs = append(pairs, core.NewMatchPair(entities[i].ID, entities[j].ID))
				}
			}
		}
	}
	er.SortMatches(pairs)
	return pairs, candidates
}

// Overhead quantifies the redundant-candidate overhead of a multi-pass
// blocking on a dataset: the ratio of block-co-occurrences (what the
// reduce phase enumerates) to distinct candidate pairs (what actually
// needs comparing). 1.0 means no pair shares more than one block.
func Overhead(entities []entity.Entity, passes []Pass) float64 {
	blocks := make(map[string]int64)
	for _, e := range entities {
		for _, k := range Keys(e, passes) {
			blocks[k]++
		}
	}
	var coOccurrences int64
	for _, n := range blocks {
		coOccurrences += n * (n - 1) / 2
	}
	_, distinct := SerialMatch(entities, passes, nil)
	if distinct == 0 {
		return 1
	}
	return float64(coOccurrences) / float64(distinct)
}

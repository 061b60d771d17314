package sn

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// Rank-partitioned Sorted Neighborhood.
//
// The plain range partitioner cuts the key space on key-group
// boundaries, so a dominant sorting key (the skewed case) lands entirely
// on one reduce task: total work stays window-bounded but its
// distribution degrades (see the SNRobustness experiment). The fix is
// the paper's BDM idea transplanted to SN: a distribution job counts
// entities per (sorting key, input partition); with those counts every
// map task can compute each entity's *global rank* in the canonical
// total order (key, partition index, arrival index) locally, exactly
// like PairRange computes entity indexes. Ranks are then range-
// partitioned directly — ⌈n/r⌉ consecutive ranks per reduce task —
// giving near-perfect balance regardless of key skew. Windows crossing
// the cut are handled by the same fringe-stitching as the key-based
// variant.

// rankKey is the composite map-output key: range ‖ global rank.
type rankKey struct {
	Range int
	Rank  int64
}

func compareRankKeys(a, b rankKey) int {
	if c := cmp.Compare(a.Range, b.Range); c != 0 {
		return c
	}
	return cmp.Compare(a.Rank, b.Rank)
}

func groupRankKeys(a, b rankKey) int {
	return cmp.Compare(a.Range, b.Range)
}

// rankKeyCoding is exact: the range fills the high word (GroupBits 64),
// the non-negative global rank the low word.
var rankKeyCoding = mapreduce.KeyCoding[rankKey]{
	Encode: func(k rankKey) mapreduce.Code {
		return mapreduce.Code{Hi: uint64(k.Range), Lo: uint64(k.Rank)}
	},
	Exact:     true,
	GroupBits: 64,
}

// rankDistribution holds what the distribution job provides to the map
// phase: for every sorting key, the global rank of its first entity and
// the per-partition offsets within the key group.
type rankDistribution struct {
	keyStart  map[string]int64 // key -> global rank of the key group's first entity
	partBase  map[string][]int64
	total     int64
	perRange  int64 // ⌈n/r⌉
	numRanges int
}

// buildRankDistribution computes the canonical-order ranks from per-
// (key, partition) counts — the SN analogue of reading the BDM during
// map initialization.
func buildRankDistribution(parts entity.Partitions, attr string, key KeyFunc, r int) *rankDistribution {
	m := len(parts)
	counts := make(map[string][]int64)
	for p, part := range parts {
		for _, e := range part {
			k := key(e.Attr(attr))
			if counts[k] == nil {
				counts[k] = make([]int64, m)
			}
			counts[k][p]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	d := &rankDistribution{
		keyStart:  make(map[string]int64, len(keys)),
		partBase:  make(map[string][]int64, len(keys)),
		numRanges: r,
	}
	var rank int64
	for _, k := range keys {
		d.keyStart[k] = rank
		bases := make([]int64, m)
		var within int64
		for p := 0; p < m; p++ {
			bases[p] = within
			within += counts[k][p]
		}
		d.partBase[k] = bases
		rank += within
	}
	d.total = rank
	d.perRange = 1
	if d.total > 0 {
		d.perRange = (d.total + int64(r) - 1) / int64(r)
	}
	return d
}

func (d *rankDistribution) rangeOfRank(rank int64) int {
	return int(rank / d.perRange)
}

// RunRankedPipeline executes sorted neighborhood with rank partitioning
// over the source's partitions. The canonical total order is (sorting
// key, partition index, arrival index); SerialRanked is the matching
// reference. Cancellation and sink semantics match RunPipeline.
func RunRankedPipeline(ctx context.Context, src er.Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	dist := buildRankDistribution(parts, cfg.Attr, cfg.Key, cfg.R)

	job := &mapreduce.Job[entity.Entity, rankKey, entity.Entity, snOut]{
		Name:           "sorted-neighborhood-ranked",
		NumReduceTasks: cfg.R,
		NewMapper: func() mapreduce.Mapper[entity.Entity, rankKey, entity.Entity] {
			return &rankMapper{cfg: &cfg, dist: dist}
		},
		NewReducer: func() mapreduce.Reducer[rankKey, entity.Entity, snOut] {
			return newSNReducer[rankKey](&cfg)
		},
		Partition: func(key rankKey, r int) int { return key.Range % r },
		Compare:   compareRankKeys,
		Group:     groupRankKeys,
		Coding:    rankKeyCoding,
	}
	out := &Result{}
	if err := runSNMatching(ctx, job, partitionInput(parts), cfg, out); err != nil {
		return nil, fmt.Errorf("sn: ranked matching job: %w", err)
	}
	return out, nil
}

type rankMapper struct {
	cfg       *Config
	dist      *rankDistribution
	partition int
	// seen counts the entities of each key already processed in this
	// partition (arrival order — the third component of the canonical
	// total order).
	seen map[string]int64
}

func (m *rankMapper) Configure(_, _, partitionIndex int) {
	m.partition = partitionIndex
	m.seen = make(map[string]int64)
}

func (m *rankMapper) Map(ctx *mapreduce.MapContext[entity.Entity, rankKey, entity.Entity], e entity.Entity) {
	k := m.cfg.Key(e.Attr(m.cfg.Attr))
	rank := m.dist.keyStart[k] + m.dist.partBase[k][m.partition] + m.seen[k]
	m.seen[k]++
	ctx.Emit(rankKey{Range: m.dist.rangeOfRank(rank), Rank: rank}, e)
}

// SerialRanked is the reference for RunRanked: entities ordered by
// (key, partition index, arrival index), windowed comparison.
func SerialRanked(parts entity.Partitions, attr string, key KeyFunc, window int, match core.Matcher) ([]core.MatchPair, int64) {
	type keyed struct {
		k    string
		part int
		seq  int
		e    entity.Entity
	}
	var ks []keyed
	for p, part := range parts {
		for seq, e := range part {
			ks = append(ks, keyed{k: key(e.Attr(attr)), part: p, seq: seq, e: e})
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		if c := a.part - b.part; c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	var pairs []core.MatchPair
	var comparisons int64
	for i := range ks {
		lo := i - (window - 1)
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			comparisons++
			if match == nil {
				continue
			}
			if _, ok := match(ks[j].e, ks[i].e); ok {
				pairs = append(pairs, core.NewMatchPair(ks[j].e.ID, ks[i].e.ID))
			}
		}
	}
	er.SortMatches(pairs)
	return pairs, comparisons
}

package mapreduce_test

// The strategy table's catalog rows (plan_equivalence_test.go):
// skewedEntities in m = 1..4 partitions under Basic, BlockSplit and
// PairRange, and dualCatalog's R in 1..2 partitions followed by its S
// in 1..2 under the two that need the BDM, each at r = 1..8 with the
// title matcher. The named tests select their runs:
//
//   - TestDataflowDifferential{,Dual}Strategies: Parallelism 1 and 4,
//     in memory and dispatched;
//   - TestExternalDifferential{,Dual}Strategies: the same spilled, at
//     least 4 runs per match-job map task;
//   - TestStrategyMatrixShuffleDifferential: the per-entity Job 1 over
//     every catalog, everywhere at Parallelism 2 — Job 2's input and
//     matrix are the aggregating Job 1's, which checkRow asserts.
//
// The reference sorts by Compare and groups by Group alone, so P1 is
// also the proof that the strategies' key codes order and group their
// keys exactly as their comparators do.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/similarity"
)

// titleMatcher decides a pair of catalog titles by their Levenshtein
// similarity, which it computes once per pair of texts: a catalog
// repeats seven titles per stem.
func titleMatcher(threshold float64) core.PairFunc {
	var sims sync.Map // [2]string → float64
	return func(a, b string) (float64, bool) {
		s, ok := sims.Load([2]string{a, b})
		if !ok {
			s, _ = sims.LoadOrStore([2]string{a, b}, similarity.LevenshteinSimilarity(a, b))
		}
		return s.(float64), s.(float64) >= threshold
	}
}

// skewedEntities builds a small catalog whose prefix-3 blocking yields
// one dominant block, a few mid-size blocks, and singletons — the skew
// shape that forces BlockSplit to split and PairRange to range-straddle.
func skewedEntities() []entity.Entity {
	var es []entity.Entity
	add := func(n int, stem string) {
		for i := 0; i < n; i++ {
			es = append(es, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%7),
			))
		}
	}
	add(40, "canon eos")  // dominant block ("can")
	add(14, "nikon d850") // mid block
	add(9, "sony alpha")  // mid block
	add(5, "fuji xt")     // small block
	add(1, "leica m11")   // singleton
	add(1, "pentax k3")   // singleton
	return es
}

// dualCatalog builds a skewed two-source catalog: a dominant shared
// block, mid-size blocks, and blocks existing in only one source (which
// a two-source run must skip entirely).
func dualCatalog() (partsR, partsS []entity.Entity) {
	add := func(dst *[]entity.Entity, n int, stem string) {
		for i := 0; i < n; i++ {
			*dst = append(*dst, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%5),
			))
		}
	}
	add(&partsR, 18, "canon eos") // dominant block, both sources
	add(&partsS, 12, "canon eos")
	add(&partsR, 7, "nikon d850") // mid block, both sources
	add(&partsS, 5, "nikon d850")
	add(&partsR, 4, "sony alpha") // R-only block: no pairs
	add(&partsS, 3, "fuji xt")    // S-only block: no pairs
	add(&partsR, 1, "leica m11")  // cross-source singleton pair
	add(&partsS, 1, "leica m11")
	return partsR, partsS
}

// catalogRow is the table's row of one catalog layout.
func catalogRow(name string, parts entity.Partitions, sources []bdm.Source, strategies []core.Strategy, how runs) stratRow {
	return stratRow{
		name: name, parts: parts, attr: "title", key: blocking.NormalizedPrefix(3),
		sources: sources, strategies: strategies, rs: []int{1, 2, 3, 4, 5, 6, 7, 8},
		match: titleMatcher(0.85), runs: how,
	}
}

// catalogRows are the catalog rows of one source or two, run as how
// says.
func catalogRows(two bool, how runs) []stratRow {
	var rows []stratRow
	if !two {
		for m := 1; m <= 4; m++ {
			rows = append(rows, catalogRow(fmt.Sprintf("m=%d", m), entity.SplitRoundRobin(skewedEntities(), m), nil,
				[]core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}, how))
		}
		return rows
	}
	esR, esS := dualCatalog()
	for mR := 1; mR <= 2; mR++ {
		for mS := 1; mS <= 2; mS++ {
			sources := make([]bdm.Source, mR+mS)
			for p := mR; p < len(sources); p++ {
				sources[p] = bdm.SourceS
			}
			rows = append(rows, catalogRow(fmt.Sprintf("mR=%d/mS=%d", mR, mS), append(entity.SplitRoundRobin(esR, mR), entity.SplitRoundRobin(esS, mS)...), sources,
				[]core.Strategy{core.BlockSplit{}, core.PairRange{}}, how))
		}
	}
	return rows
}

// The catalog tests' runs.
var (
	inPlace     = runs{pars: []int{1, 4}, where: map[string]residency{"memory": inMemory, "dispatched": distributed}, minRuns: 4}
	spilledOnly = runs{pars: []int{1, 4}, where: map[string]residency{"spilled": spilling}, minRuns: 4}
	par2        = runs{pars: []int{2}, where: everywhere, minRuns: 1}
)

func checkRows(t *testing.T, rows []stratRow) {
	for _, rw := range rows {
		checkRow(t, rw)
	}
}

func TestDataflowDifferentialStrategies(t *testing.T) {
	checkRows(t, catalogRows(false, inPlace))
}

func TestDataflowDifferentialDualStrategies(t *testing.T) {
	checkRows(t, catalogRows(true, inPlace))
}

func TestExternalDifferentialStrategies(t *testing.T) {
	checkRows(t, catalogRows(false, spilledOnly))
}

func TestExternalDifferentialDualStrategies(t *testing.T) {
	checkRows(t, catalogRows(true, spilledOnly))
}

func TestStrategyMatrixShuffleDifferential(t *testing.T) {
	for _, rw := range append(catalogRows(false, par2), catalogRows(true, par2)...) {
		rw.perEntity, rw.strategies = true, nil
		checkRow(t, rw)
	}
}

// TestDataflowDifferentialBDMJobPerEntity holds the BDM job that does
// not aggregate — one (blockingKey.partitionIndex, 1) per annotated
// entity — to the reference in memory, spilled and dispatched at
// Parallelism 1, and its matrix to the one computed directly from the
// entities.
func TestDataflowDifferentialBDMJobPerEntity(t *testing.T) {
	rw := catalogRow("job1", entity.SplitRoundRobin(skewedEntities(), 3), nil, nil, runs{pars: []int{1}, where: everywhere, minRuns: 1})
	rw.rs, rw.perEntity = []int{4}, true
	checkRow(t, rw)
}

// TestExternalDifferentialBDMJob holds the aggregating BDM job, spilled
// at Parallelism 2, to the reference.
func TestExternalDifferentialBDMJob(t *testing.T) {
	rw := catalogRow("job1", entity.SplitRoundRobin(skewedEntities(), 3), nil, nil, runs{pars: []int{2}, where: map[string]residency{"spilled": spilling}, minRuns: 1})
	rw.rs = []int{4}
	checkRow(t, rw)
}

// TestBDMJobCountTableAgainstReference holds the aggregating BDM job to
// the reference on the blocking keys its count table could get wrong:
// keys that agree on the 8-byte word the table is probed by and differ
// right after it, after byte 16 (where the sort's prefix code ends too)
// or only in length, the empty key, and more distinct keys per task than
// the table starts with room for, so that it grows with all of them in it.
// The last partition is a second source: the matrix, tagged, is the
// direct one tagged.
func TestBDMJobCountTableAgainstReference(t *testing.T) {
	var keys []string
	for i := 0; i < 150; i++ {
		keys = append(keys, fmt.Sprintf("sameword%03d", i), fmt.Sprintf("k%03d", i))
	}
	keys = append(keys, "", "sameword", "samewor", "0123456789abcdefX", "0123456789abcdefY", "0123456789abcdef")
	var es []entity.Entity
	for i, key := range keys {
		for n := 0; n <= i%4; n++ {
			es = append(es, entity.New(fmt.Sprintf("e%03d-%d", i, n), "k", key))
		}
	}
	for _, m := range []int{1, 3} {
		sources := make([]bdm.Source, m)
		sources[m-1] = bdm.SourceS
		checkRow(t, stratRow{
			name: fmt.Sprintf("m=%d", m), parts: entity.SplitRoundRobin(es, m), attr: "k", key: blocking.Identity(),
			sources: sources, rs: []int{4}, runs: par2,
		})
	}
}

// TestShuffleMaxGroupRecordsMatchesBlockSizes pins the semantics of the
// streamed MaxGroupRecords metric on a concrete case: with Basic and one
// reduce task, the largest group is exactly the dominant block.
func TestShuffleMaxGroupRecordsMatchesBlockSizes(t *testing.T) {
	es := skewedEntities()
	res, err := er.RunPipeline(context.Background(), er.FromPartitions(entity.SplitRoundRobin(es, 3)), er.Config{
		Strategy: core.Basic{},
		Attr:     "title",
		BlockKey: blocking.NormalizedPrefix(3),
		R:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MatchResult.ReduceMetrics[0].MaxGroupRecords; got != 40 {
		t.Errorf("MaxGroupRecords = %d, want 40 (the dominant block)", got)
	}
}

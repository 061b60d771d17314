package mapreduce_test

// The paper's invariant under generated matrices (ROADMAP 2d): a block
// distribution matrix is drawn directly — one source or two, or one
// source with a ⊥ row of keyless entities, corners included — and
// entities are synthesized to produce it. For every
// draw, BlockSplit (with and without a memory cap) and PairRange must
// compare each candidate pair exactly once, execute exactly the
// per-task workloads their Plan predicts, and run in memory, spilled
// and dispatched to the full Result of Job.Reference.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

// matrixDraw is one generated matrix: entity counts per block and
// partition, the partitions' source tags (nil = one source), the
// keyless entities per partition (nil = no ⊥ row) and the number of
// reduce tasks.
type matrixDraw struct {
	sizes   [][]int // [block][partition]
	sources []bdm.Source
	bottom  []int // [partition]
	r       int
}

// corners is how many corners drawMatrix cycles through.
const corners = 12

// drawMatrix draws trial's matrix: a random skewed shape plus, by trial
// mod corners, one corner — empty blocks, one block holding everything,
// r > P, m = 1, a block present in one partition only, a two-source
// block with an empty side, strictly interleaved R/S tags, a ⊥ row of
// random counts, of one keyless entity, without keyed entities, and in
// one partition only.
func drawMatrix(rng *rand.Rand, trial int) matrixDraw {
	corner := trial % corners
	m, b := 1+rng.Intn(5), 1+rng.Intn(6)
	switch corner {
	case 1:
		b = 1
	case 3:
		m = 1
	case 5, 6, 11:
		m = max(m, 2)
	}
	var d matrixDraw
	if corner < 8 && m > 1 && (corner >= 5 || rng.Intn(2) == 0) {
		d.sources = make([]bdm.Source, m)
		for p := range d.sources {
			d.sources[p] = bdm.Source(rng.Intn(2))
			if corner == 6 {
				d.sources[p] = bdm.Source(p % 2)
			}
		}
	}
	d.sizes = make([][]int, b)
	for k := range d.sizes {
		d.sizes[k] = make([]int, m)
		w := rng.Intn(8) // skew: blocks differ in weight
		for p := range d.sizes[k] {
			d.sizes[k][p] = rng.Intn(w + 1)
		}
	}
	k := rng.Intn(b)
	switch corner {
	case 0: // one block without entities, one with a single entity
		clear(d.sizes[k])
		if b > 1 {
			k2 := (k + 1) % b
			clear(d.sizes[k2])
			d.sizes[k2][rng.Intn(m)] = 1
		}
	case 4:
		clear(d.sizes[k])
		d.sizes[k][rng.Intn(m)] = 2 + rng.Intn(6)
	case 5:
		empty := bdm.Source(rng.Intn(2))
		for p, src := range d.sources {
			d.sizes[k][p] = 0
			if src != empty {
				d.sizes[k][p] = 1 + rng.Intn(4)
			}
		}
	}
	if corner >= 8 {
		d.bottom = make([]int, m)
		for p := range d.bottom {
			d.bottom[p] = rng.Intn(4)
		}
		p := rng.Intn(m)
		switch corner {
		case 9:
			clear(d.bottom)
			d.bottom[p] = 1
		case 10:
			for _, row := range d.sizes {
				clear(row)
			}
		case 11:
			clear(d.bottom)
		}
		d.bottom[p] = max(d.bottom[p], 1)
	}
	d.r = 1 + rng.Intn(8)
	if corner == 2 {
		d.r = len(d.pairs(d.partitions(rng))) + 1 + rng.Intn(4)
	}
	return d
}

// partitions synthesizes entities that produce the drawn matrix: block
// k's entities carry the key "b<k>", keyless ones the empty key, and a
// partition's blocks interleave.
func (d matrixDraw) partitions(rng *rand.Rand) entity.Partitions {
	parts := make(entity.Partitions, len(d.sizes[0]))
	for k, row := range d.sizes {
		for p, n := range row {
			for i := 0; i < n; i++ {
				parts[p] = append(parts[p], entity.New(fmt.Sprintf("e%d.%d.%d", k, p, i), "k", fmt.Sprintf("b%d", k)))
			}
		}
	}
	for p, n := range d.bottom {
		for i := 0; i < n; i++ {
			parts[p] = append(parts[p], entity.New(fmt.Sprintf("e⊥.%d.%d", p, i), "k", ""))
		}
	}
	for _, part := range parts {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	return parts
}

// pairs is the serial reference's candidate pairs of parts, sorted. With
// a ⊥ row it is brute force: every pair of one key or with a keyless
// side.
func (d matrixDraw) pairs(parts entity.Partitions) []core.MatchPair {
	if d.bottom != nil {
		es := parts.Flatten()
		pairs := []core.MatchPair{}
		for i, a := range es {
			for _, b := range es[i+1:] {
				if ka, kb := a.Attr("k"), b.Attr("k"); ka == kb || ka == "" || kb == "" {
					pairs = append(pairs, core.NewMatchPair(a.ID, b.ID))
				}
			}
		}
		er.SortMatches(pairs)
		return pairs
	}
	if d.sources == nil {
		pairs, _ := er.SerialMatch(parts.Flatten(), "k", blocking.Identity(), matchAll)
		return pairs
	}
	var r, s []entity.Entity
	for p, part := range parts {
		if d.sources[p] == bdm.SourceS {
			s = append(s, part...)
		} else {
			r = append(r, part...)
		}
	}
	pairs, _ := er.SerialMatchDual(r, s, "k", blocking.Identity(), matchAll)
	return pairs
}

var matchAll core.PairFunc = func(entity.Entity, entity.Entity) (float64, bool) { return 1, true }

// drawnMatrix is what the suite reads back from the matrix a strategy
// planned with.
type drawnMatrix interface {
	Pairs() int64
	BlockIndex(key string) (int, bool)
	SizeIn(k, p int) int
	MissingKeys() bool
	KeyedIn(p int) int
}

// drawnJob builds the matrix of parts, tagged with sources or given a ⊥
// row, and strat's plan and match job over it — the one place the suite
// meets the strategies' API.
func drawnJob(t *testing.T, strat core.Strategy, parts entity.Partitions, sources []bdm.Source, bottom bool, r int) (drawnMatrix, *core.Plan, core.MatchJob) {
	t.Helper()
	x, err := bdm.FromPartitions(parts, "k", blocking.Identity())
	switch {
	case err == nil && sources != nil:
		x, err = x.WithSources(sources)
	case err == nil && bottom:
		x, err = x.WithMissingKeys()
	}
	if err != nil {
		t.Fatal(err)
	}
	plan, err := strat.Plan(x, len(parts), r)
	if err != nil {
		t.Fatal(err)
	}
	job, err := strat.Job(x, r, matchAll)
	if err != nil {
		t.Fatal(err)
	}
	return x, plan, job
}

func TestPlanExecutionEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6*corners; trial++ {
		d := drawMatrix(rng, trial)
		parts := d.partitions(rng)
		want := d.pairs(parts)
		input := er.AnnotateInput(parts, "k", blocking.Identity())
		strategies := []core.Strategy{core.BlockSplit{}, core.BlockSplit{MaxEntitiesPerTask: 1 + rng.Intn(8)}, core.PairRange{}}
		if d.sources == nil && d.bottom == nil {
			strategies = append(strategies, core.Basic{})
		}
		for _, strat := range strategies {
			name := fmt.Sprintf("trial %d: %s%+v m=%d r=%d sources=%v ⊥=%v", trial, strat.Name(), strat, len(parts), d.r, d.sources, d.bottom)
			x, plan, job := drawnJob(t, strat, parts, d.sources, d.bottom != nil, d.r)
			for k, row := range d.sizes {
				bk, ok := x.BlockIndex(fmt.Sprintf("b%d", k))
				if ok != (slices.Max(row) > 0) {
					t.Fatalf("%s: drawn block %d present=%v in the matrix, drawn %v", name, k, ok, row)
				}
				for p, n := range row {
					if ok && x.SizeIn(bk, p) != n {
						t.Fatalf("%s: cell (%d, %d) holds %d entities, drawn %d", name, k, p, x.SizeIn(bk, p), n)
					}
				}
			}
			if x.MissingKeys() != (d.bottom != nil) {
				t.Fatalf("%s: ⊥ row %v in the matrix, drawn %v", name, x.MissingKeys(), d.bottom)
			}
			for p, n := range d.bottom {
				keyed := 0
				for _, row := range d.sizes {
					keyed += row[p]
				}
				if x.SizeIn(0, p) != n || x.KeyedIn(p) != keyed {
					t.Fatalf("%s: ⊥ row of partition %d holds %d keyless, %d keyed entities; drawn %d, %d", name, p, x.SizeIn(0, p), x.KeyedIn(p), n, keyed)
				}
			}
			if x.Pairs() != int64(len(want)) {
				t.Fatalf("%s: P = %d, the serial reference has %d pairs", name, x.Pairs(), len(want))
			}

			rr, err := core.RemoteRunnableFor(job)
			if err != nil {
				t.Fatal(err)
			}
			ref := checkEverywhere(t, name, job, rr, 2, input, 0)

			// Every candidate pair exactly once: the match-all matcher
			// emits each comparison.
			got := make([]core.MatchPair, len(ref.Output))
			for i, o := range ref.Output {
				got[i] = o.Key
			}
			er.SortMatches(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: compared %d pairs, the serial reference has %d (or a pair twice)", name, len(got), len(want))
			}

			// Executed = planned, task by task.
			for i, mt := range ref.MapMetrics {
				if mt.InputRecords != plan.MapRecords[i] || mt.OutputRecords != plan.MapEmits[i] {
					t.Errorf("%s: map task %d read %d, emitted %d; planned %d, %d", name, i, mt.InputRecords, mt.OutputRecords, plan.MapRecords[i], plan.MapEmits[i])
				}
			}
			for j, rt := range ref.ReduceMetrics {
				if rt.InputRecords != plan.ReduceRecords[j] || rt.Counter(core.ComparisonsCounter) != plan.ReduceComparisons[j] {
					t.Errorf("%s: reduce task %d got %d records, %d comparisons; planned %d, %d", name, j, rt.InputRecords, rt.Counter(core.ComparisonsCounter), plan.ReduceRecords[j], plan.ReduceComparisons[j])
				}
			}
			if _, ok := strat.(core.PairRange); ok {
				if q := core.NewRanges(x.Pairs(), d.r).Q; plan.MaxReduceComparisons() > q {
					t.Errorf("%s: a reduce task compares %d pairs > ceil(P/r) = %d", name, plan.MaxReduceComparisons(), q)
				}
			}
		}
	}
}

package mapreduce_test

// The one strategy differential. A row names an input — a generated
// matrix here, skewedEntities or dualCatalog in
// dataflow_differential_test.go — in one shape (one source, two, or one
// with a ⊥ row), the strategies, the reduce task counts, the runs
// (parallelisms, residencies, a fault schedule), the Job 1 mapper and a
// matcher. checkRow holds every row to three properties:
//
//   - P1. Job 1's and Job 2's Results equal Job.Reference's in every
//     run, faulted ones included.
//   - P2. Job 2 executes exactly the per-task figures of its Plan.
//   - P3. Job 2 compares every candidate pair exactly once, and its
//     matches are the serial oracle's.
//
// Each named test is a selection of rows.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// stratRow is one row of the strategy table.
type stratRow struct {
	name       string
	parts      entity.Partitions
	attr       string
	key        blocking.KeyFunc
	sources    []bdm.Source    // the partitions' source tags; nil = one source
	bottom     bool            // a ⊥ row of keyless entities
	strategies []core.Strategy // none: Job 1 alone
	rs         []int           // reduce tasks, of both jobs
	perEntity  bool            // Job 1 emits a 1 per entity, not one record per cell
	match      core.PairFunc
	runs       // minRuns is for Job 2's spilled map tasks
}

// checkRow checks P1, P2 and P3 on rw and returns the retries its runs
// took.
func checkRow(t *testing.T, rw stratRow) int64 {
	t.Helper()
	m := len(rw.parts)
	input, keys := bdm.Annotate(rw.parts, rw.attr, rw.key)
	ids := bdm.BlockIDs(input)
	direct, err := bdm.FromPartitions(rw.parts, rw.attr, rw.key)
	if err != nil {
		t.Fatal(err)
	}
	pairs, comps := serialOracle(rw.parts, rw.sources, rw.bottom, rw.attr, rw.key, rw.match)
	// An aggregating Job 1 task spills a handful of records: one run.
	job1Runs := rw.runs
	job1Runs.minRuns = min(job1Runs.minRuns, 1)
	var retries int64
	for _, r := range rw.rs {
		name := fmt.Sprintf("%s/r=%d", rw.name, r)
		job1 := bdm.Job(bdm.JobOptions{NumReduceTasks: r, UseCombiner: !rw.perEntity})
		rr1, err := mapreduce.NewRemoteRunnable(job1)
		if err != nil {
			t.Fatal(err)
		}
		ref1, n := checkEverywhere(t, name+"/bdm", job1, rr1, ids, job1Runs)
		retries += n
		x := matrixOf(t, ref1, keys, m)
		if !reflect.DeepEqual(x, direct) {
			t.Fatalf("%s: Job 1's matrix differs from bdm.FromPartitions'", name)
		}
		x = shape(t, x, rw.sources, rw.bottom)
		if x.Pairs() != comps {
			t.Fatalf("%s: P = %d, the serial oracle compares %d pairs", name, x.Pairs(), comps)
		}
		for _, strat := range rw.strategies {
			name := fmt.Sprintf("%s/%s%+v", name, strat.Name(), strat)
			plan, err := strat.Plan(x, m, r)
			if err != nil {
				t.Fatal(err)
			}
			job, err := strat.Job(x, r, rw.match)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := core.RemoteRunnableFor(job)
			if err != nil {
				t.Fatal(err)
			}
			ref, n := checkEverywhere(t, name+"/match", job, rr, input, rw.runs)
			retries += n

			// P3: the output holds one record per match.
			got := make([]core.MatchPair, len(ref.Output))
			for i, o := range ref.Output {
				got[i] = o.Key
			}
			er.SortMatches(got)
			if !slices.Equal(got, pairs) || ref.Counter(core.ComparisonsCounter) != comps {
				t.Fatalf("%s: %d matches in %d comparisons; the serial oracle has %d in %d (or a pair twice)", name, len(got), ref.Counter(core.ComparisonsCounter), len(pairs), comps)
			}

			// P2: executed = planned, task by task.
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
				if q := core.NewRanges(x.Pairs(), r).Q; plan.MaxReduceComparisons() > q {
					t.Errorf("%s: a reduce task compares %d pairs > ceil(P/r) = %d", name, plan.MaxReduceComparisons(), q)
				}
			}
		}
	}
	return retries
}

// shape tags x with the partitions' sources or gives it a ⊥ row.
func shape(t *testing.T, x *bdm.Matrix, sources []bdm.Source, bottom bool) *bdm.Matrix {
	t.Helper()
	var err error
	switch {
	case sources != nil:
		x, err = x.WithSources(sources)
	case bottom:
		x, err = x.WithMissingKeys()
	}
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// serialOracle is the table's one P3 reference, the serial matcher of
// the input's shape: er.SerialMatchDual over the R and S partitions,
// er.SerialMatch over one source and, with a ⊥ row, er.SerialMatch over
// the keyed entities plus every pair with a keyless side.
func serialOracle(parts entity.Partitions, sources []bdm.Source, bottom bool, attr string, key blocking.KeyFunc, match core.PairFunc) ([]core.MatchPair, int64) {
	if sources != nil {
		var r, s []entity.Entity
		for p, part := range parts {
			if sources[p] == bdm.SourceS {
				s = append(s, part...)
			} else {
				r = append(r, part...)
			}
		}
		return er.SerialMatchDual(r, s, attr, key, match)
	}
	if !bottom {
		return er.SerialMatch(slices.Concat(parts...), attr, key, match)
	}
	var keyed, keyless []entity.Entity
	for _, e := range slices.Concat(parts...) {
		if key(e.Attr(attr)) == "" {
			keyless = append(keyless, e)
		} else {
			keyed = append(keyed, e)
		}
	}
	pairs, comps := er.SerialMatch(keyed, attr, key, match)
	for i, a := range keyless {
		for _, b := range slices.Concat(keyless[i+1:], keyed) {
			comps++
			if _, ok := match(a.Attr(attr), b.Attr(attr)); ok {
				pairs = append(pairs, core.NewMatchPair(a.ID, b.ID))
			}
		}
	}
	er.SortMatches(pairs)
	return pairs, comps
}

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
		_, pairs := serialOracle(d.partitions(rng), d.sources, d.bottom != nil, "k", blocking.Identity(), matchAll)
		d.r = int(pairs) + 1 + rng.Intn(4)
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

// matchAll is the draw rows' matcher: it emits every comparison.
var matchAll core.PairFunc = func(string, string) (float64, bool) { return 1, true }

// row is the strategy table's row of d over parts: every strategy the
// shape admits, everywhere at Parallelism 2.
func (d matrixDraw) row(name string, parts entity.Partitions, strategies []core.Strategy) stratRow {
	return stratRow{
		name: name, parts: parts, attr: "k", key: blocking.Identity(),
		sources: d.sources, bottom: d.bottom != nil,
		strategies: strategies, rs: []int{d.r}, match: matchAll,
		runs: runs{pars: []int{2}, where: everywhere},
	}
}

// checkMatrix checks that parts produce the drawn matrix: its cells,
// its ⊥ row and its keyed entities per partition.
func (d matrixDraw) checkMatrix(t *testing.T, name string, parts entity.Partitions) {
	t.Helper()
	x, err := bdm.FromPartitions(parts, "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	x = shape(t, x, d.sources, d.bottom != nil)
	for k, cells := range d.sizes {
		bk, ok := blockIndex(x, fmt.Sprintf("b%d", k))
		if ok != (slices.Max(cells) > 0) {
			t.Fatalf("%s: drawn block %d present=%v in the matrix, drawn %v", name, k, ok, cells)
		}
		for p, n := range cells {
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
		for _, cells := range d.sizes {
			keyed += cells[p]
		}
		if x.SizeIn(0, p) != n || x.KeyedIn(p) != keyed {
			t.Fatalf("%s: ⊥ row of partition %d holds %d keyless, %d keyed entities; drawn %d, %d", name, p, x.SizeIn(0, p), x.KeyedIn(p), n, keyed)
		}
	}
}

// TestPlanExecutionEquivalenceFuzz checks the rows of generated
// matrices, six per corner: BlockSplit with and without a memory cap,
// PairRange and, over one source, Basic. Every second round of corners
// counts with the per-entity Job 1, and every fifth draw runs under the
// -chaos-seed schedule; the chaos-smoke job randomizes the seed.
func TestPlanExecutionEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var retries int64
	for trial := 0; trial < 6*corners; trial++ {
		d := drawMatrix(rng, trial)
		parts := d.partitions(rng)
		strategies := []core.Strategy{core.BlockSplit{}, core.BlockSplit{MaxEntitiesPerTask: 1 + rng.Intn(8)}, core.PairRange{}}
		if d.sources == nil && d.bottom == nil {
			strategies = append(strategies, core.Basic{})
		}
		name := fmt.Sprintf("trial %d: m=%d sources=%v ⊥=%v", trial, len(parts), d.sources, d.bottom)
		d.checkMatrix(t, name, parts)
		rw := d.row(name, parts, strategies)
		rw.perEntity = trial/corners%2 == 1
		rw.chaos = trial%5 == 4
		if n := checkRow(t, rw); rw.chaos {
			retries += n
		}
	}
	if retries == 0 {
		t.Errorf("chaos-seed=%d: the chaos rows retried no attempt", *chaosSeed)
	}
}

// TestPlanExecutionEquivalenceWidePartitions is the table's BlockSplit
// row with more partitions than a byte can index: one block with an
// entity in each of 260 partitions is split into 260 sub-blocks, so its
// tasks' split components reach 259. A split component narrowed below
// 16 bits would merge or misorder tasks there.
func TestPlanExecutionEquivalenceWidePartitions(t *testing.T) {
	const m = 260
	d := matrixDraw{sizes: [][]int{make([]int, m), make([]int, m)}, r: 4}
	for p := range d.sizes[0] {
		d.sizes[0][p] = 1
	}
	d.sizes[1][0], d.sizes[1][m/2], d.sizes[1][m-1] = 2, 1, 2
	parts := d.partitions(rand.New(rand.NewSource(5)))
	d.checkMatrix(t, "wide", parts)
	checkRow(t, d.row("wide", parts, []core.Strategy{core.BlockSplit{}}))
}

// blockIndex returns the block of key in x, and whether x has one.
func blockIndex(x *bdm.Matrix, key string) (int, bool) {
	for k := 0; k < x.NumBlocks(); k++ {
		if x.BlockKey(k) == key {
			return k, true
		}
	}
	return -1, false
}

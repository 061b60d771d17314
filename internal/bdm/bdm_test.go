package bdm

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

func parts2() entity.Partitions {
	mk := func(id, key string) entity.Entity { return entity.New(id, "k", key) }
	return entity.Partitions{
		{mk("a", "x"), mk("b", "x"), mk("c", "y")},
		{mk("d", "x"), mk("e", "z"), mk("f", "z"), mk("g", "z")},
	}
}

func TestFromPartitions(t *testing.T) {
	x, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if x.NumBlocks() != 3 || x.NumPartitions() != 2 {
		t.Fatalf("shape = %d×%d, want 3×2", x.NumBlocks(), x.NumPartitions())
	}
	// Lexicographic block order: x, y, z.
	if x.BlockKey(0) != "x" || x.BlockKey(2) != "z" {
		t.Errorf("block order = %q..%q", x.BlockKey(0), x.BlockKey(2))
	}
	xk, _ := blockIndex(x, "x")
	if x.SizeIn(xk, 0) != 2 || x.SizeIn(xk, 1) != 1 || x.Size(xk) != 3 {
		t.Errorf("x sizes wrong: %d/%d total %d", x.SizeIn(xk, 0), x.SizeIn(xk, 1), x.Size(xk))
	}
	// Pairs: x: 3, y: 0, z: 3 → 6; offsets 0, 3, 3.
	if x.Pairs() != 6 {
		t.Errorf("Pairs = %d, want 6", x.Pairs())
	}
	if x.PairOffset(1) != 3 || x.PairOffset(2) != 3 {
		t.Errorf("offsets = %d,%d, want 3,3", x.PairOffset(1), x.PairOffset(2))
	}
	if x.TotalEntities() != 7 {
		t.Errorf("TotalEntities = %d, want 7", x.TotalEntities())
	}
	k, size := x.LargestBlock()
	if size != 3 || (x.BlockKey(k) != "x" && x.BlockKey(k) != "z") {
		t.Errorf("LargestBlock = %d (size %d)", k, size)
	}
}

func TestEntityOffset(t *testing.T) {
	x, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	xk, _ := blockIndex(x, "x")
	if got := x.EntityOffset(xk, 0); got != 0 {
		t.Errorf("EntityOffset(x, 0) = %d, want 0", got)
	}
	if got := x.EntityOffset(xk, 1); got != 2 {
		t.Errorf("EntityOffset(x, 1) = %d, want 2", got)
	}
}

// cell is one count record for FromCounts: n entities of block k in
// partition p.
func cell(k, p, n int) CountRecord {
	return CountRecord{Key: Key{Block: int32(k), Partition: int32(p)}, Value: n}
}

// nonZeroCells returns the number of non-zero cells of x: the lines its
// WriteTo writes after the header.
func nonZeroCells(x *Matrix) int {
	n := 0
	for _, row := range x.sizes {
		for _, c := range row {
			if c > 0 {
				n++
			}
		}
	}
	return n
}

func TestFromCountsValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		keys   []string
		m      int
		counts []CountRecord
	}{
		"m=0":                    {nil, 0, nil},
		"partition out of range": {[]string{"a"}, 2, []CountRecord{cell(0, 5, 1)}},
		"negative partition":     {[]string{"a"}, 2, []CountRecord{cell(0, -1, 1)}},
		"block out of range":     {[]string{"a"}, 2, []CountRecord{cell(1, 0, 1)}},
		"negative count":         {[]string{"a"}, 2, []CountRecord{cell(0, 0, -1)}},
		"zero count":             {[]string{"a"}, 2, []CountRecord{cell(0, 0, 0)}},
		"duplicate cell":         {[]string{"a"}, 2, []CountRecord{cell(0, 0, 1), cell(0, 0, 2)}},
	} {
		if _, err := FromCounts(tc.keys, tc.m, tc.counts); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	x, err := FromCounts(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumBlocks() != 0 || x.Pairs() != 0 || x.TotalEntities() != 0 {
		t.Errorf("empty matrix not empty: %v", x)
	}
	if k, size := x.LargestBlock(); k != -1 || size != 0 {
		t.Errorf("LargestBlock on empty = %d,%d", k, size)
	}
}

// TestCellsRoundTrip: the matrix FromPartitions counts is the one
// FromCounts assembles from its own non-zero cells, by block id.
func TestCellsRoundTrip(t *testing.T) {
	x, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	var counts []CountRecord
	for k := range x.NumBlocks() {
		for p := range x.NumPartitions() {
			if n := x.SizeIn(k, p); n > 0 {
				counts = append(counts, cell(k, p, n))
			}
		}
	}
	y, err := FromCounts(x.keys, x.NumPartitions(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Errorf("cells round trip changed the matrix:\n%v\nvs\n%v", x, y)
	}
}

// TestMRJobAgreesWithDirectBuilder is the core BDM property: Algorithm 3
// executed on the MR engine produces exactly the direct computation, for
// random inputs, any reduce-task count, with and without the per-task
// aggregation of footnote 2 (UseCombiner); and what ComputeContext hands
// Job 2 is the annotated input the job ran on.
func TestMRJobAgreesWithDirectBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := rng.Intn(5) + 1
		parts := make(entity.Partitions, m)
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			p := rng.Intn(m)
			value := fmt.Sprintf("b%02d-%d", rng.Intn(10), i)
			parts[p] = append(parts[p], entity.New(fmt.Sprintf("e%d", i), "k", value))
		}
		key := blocking.NormalizedPrefix(3)
		want, err := FromPartitions(parts, "k", key)
		if err != nil {
			t.Fatal(err)
		}
		for _, combiner := range []bool{false, true} {
			r := rng.Intn(7) + 1
			got, input, res, err := ComputeContext(context.Background(), &mapreduce.Engine{}, parts, JobOptions{
				Attr: "k", KeyFunc: key, NumReduceTasks: r, UseCombiner: combiner,
			})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (r=%d combiner=%v): MR matrix differs:\n%v\nvs\n%v", trial, r, combiner, got, want)
			}
			// Footnote 2: one map-output record per non-zero cell instead
			// of one per entity.
			wantOut := n
			if combiner {
				wantOut = nonZeroCells(want)
			}
			if res.MapOutputRecords != int64(wantOut) {
				t.Fatalf("trial %d (combiner=%v): MapOutputRecords = %d, want %d", trial, combiner, res.MapOutputRecords, wantOut)
			}
			// The annotated input is the job's: every partition in place,
			// each entity in place with the id of KeyFunc(Attr) in the
			// matrix, all of it read by the map task of its partition.
			if len(input) != m {
				t.Fatalf("trial %d: %d annotated partitions, want %d", trial, len(input), m)
			}
			for p := range parts {
				if len(input[p]) != len(parts[p]) || res.MapMetrics[p].InputRecords != int64(len(parts[p])) {
					t.Fatalf("trial %d: partition %d: %d annotated, %d read by its map task, want %d",
						trial, p, len(input[p]), res.MapMetrics[p].InputRecords, len(parts[p]))
				}
				for j, rec := range input[p] {
					e := parts[p][j]
					if rec.Value.ID != e.ID || got.BlockKey(int(rec.Key)) != key(e.Attr("k")) {
						t.Fatalf("trial %d: annotated %d/%d is (%q, %s), want (%q, %s)", trial, p, j, got.BlockKey(int(rec.Key)), rec.Value.ID, key(e.Attr("k")), e.ID)
					}
				}
			}
		}
	}
}

func TestMatrixString(t *testing.T) {
	x, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	s := x.String()
	if !strings.Contains(s, "3 blocks") || !strings.Contains(s, "P=6") {
		t.Errorf("String() = %q", s)
	}
}

func TestJobPanicsOnBadOptions(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("r=0", func() { Job(JobOptions{KeyFunc: blocking.Identity()}) })
}

// TestComputeContextRejectsBadOptions: bad options are an error before
// anything runs, not a panic.
func TestComputeContextRejectsBadOptions(t *testing.T) {
	for name, opts := range map[string]JobOptions{
		"nil KeyFunc": {NumReduceTasks: 1},
		"r=0":         {KeyFunc: blocking.Identity()},
		"r=-1":        {KeyFunc: blocking.Identity(), NumReduceTasks: -1},
	} {
		if _, _, _, err := ComputeContext(context.Background(), &mapreduce.Engine{}, parts2(), opts); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// blockIndex returns the block of key in x, and whether x has one.
func blockIndex(x *Matrix, key string) (int, bool) {
	k, ok := slices.BinarySearch(x.keys, key)
	return k, ok
}

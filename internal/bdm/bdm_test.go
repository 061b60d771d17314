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
		counts []int
	}{
		"m=0":              {nil, 0, nil},
		"a count short":    {[]string{"a"}, 2, []int{1}},
		"a count too many": {[]string{"a"}, 2, []int{1, 0, 1}},
		"no counts":        {[]string{"a", "b"}, 1, nil},
		"negative count":   {[]string{"a", "b"}, 2, []int{1, 0, 0, -1}},
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
// FromCounts assembles from its own cells, block by block.
func TestCellsRoundTrip(t *testing.T) {
	x, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for k := range x.NumBlocks() {
		for p := range x.NumPartitions() {
			counts = append(counts, x.SizeIn(k, p))
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

// TestMRJobAgreesWithDirectBuilder is the core BDM property: Algorithm
// 3's count, taken where Annotate numbers the keys, is exactly the
// direct computation for random inputs; its JobResult records one
// map-output record per non-zero cell, as footnote 2's combiner emits;
// and what ComputeContext hands Job 2 is the annotated input it counted.
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
		got, input, res, err := ComputeContext(context.Background(), nil, parts, JobOptions{Attr: "k", KeyFunc: key})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: counted matrix differs:\n%v\nvs\n%v", trial, got, want)
		}
		wantRes := &JobResult{mapreduce.Metrics{JobName: "bdm", MapOutputRecords: int64(nonZeroCells(want))}}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("trial %d: JobResult = %+v, want %+v", trial, res, wantRes)
		}
		// The annotated input is the counted one: every partition in
		// place, each entity in place with the id of KeyFunc(Attr) in the
		// matrix.
		if len(input) != m {
			t.Fatalf("trial %d: %d annotated partitions, want %d", trial, len(input), m)
		}
		for p := range parts {
			if len(input[p]) != len(parts[p]) {
				t.Fatalf("trial %d: partition %d: %d annotated, want %d", trial, p, len(input[p]), len(parts[p]))
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

// TestComputeContextRejectsBadOptions: a missing KeyFunc is an error
// before anything runs, not a panic.
func TestComputeContextRejectsBadOptions(t *testing.T) {
	if _, _, _, err := ComputeContext(context.Background(), nil, parts2(), JobOptions{NumReduceTasks: 1}); err == nil {
		t.Error("nil KeyFunc: no error")
	}
}

// blockIndex returns the block of key in x, and whether x has one.
func blockIndex(x *Matrix, key string) (int, bool) {
	k, ok := slices.BinarySearch(x.keys, key)
	return k, ok
}

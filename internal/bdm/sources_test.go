package bdm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/entity"
)

func dualParts() (entity.Partitions, []Source) {
	mk := func(id, key string) entity.Entity { return entity.New(id, "k", key) }
	parts := entity.Partitions{
		{mk("a", "x"), mk("b", "x"), mk("c", "y")}, // R
		{mk("d", "x"), mk("e", "z")},               // S
		{mk("f", "x"), mk("g", "z")},               // S
	}
	return parts, []Source{SourceR, SourceS, SourceS}
}

func dualMatrix(t *testing.T) *Matrix {
	t.Helper()
	parts, sources := dualParts()
	x, err := FromPartitions(parts, "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if x, err = x.WithSources(sources); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestWithSources(t *testing.T) {
	x := dualMatrix(t)
	if x.NumBlocks() != 3 || x.NumPartitions() != 3 || !x.TwoSources() {
		t.Fatalf("shape %d×%d (two sources: %v), want 3×3 tagged", x.NumBlocks(), x.NumPartitions(), x.TwoSources())
	}
	xk, ok := blockIndex(x, "x")
	if !ok {
		t.Fatal("block x missing")
	}
	if x.SourceSize(xk, SourceR) != 2 || x.SourceSize(xk, SourceS) != 2 {
		t.Errorf("|x,R|=%d |x,S|=%d, want 2/2", x.SourceSize(xk, SourceR), x.SourceSize(xk, SourceS))
	}
	// Pairs: x: 2·2=4, y: 1·0=0, z: 0·2=0 → P=4.
	if x.Pairs() != 4 {
		t.Errorf("Pairs = %d, want 4", x.Pairs())
	}
	if got := x.BlockPairs(xk); got != 4 {
		t.Errorf("x pairs = %d, want 4", got)
	}
	// Entity offsets within source S: partition 2's x-entity is the
	// second S entity of block x.
	if got := x.EntityOffset(xk, 2); got != 1 {
		t.Errorf("EntityOffset(x, Π2) = %d, want 1", got)
	}
	if got := x.EntityOffset(xk, 1); got != 0 {
		t.Errorf("EntityOffset(x, Π1) = %d, want 0", got)
	}
	if x.PartitionSource(0) != SourceR || x.PartitionSource(2) != SourceS {
		t.Error("PartitionSource wrong")
	}
	if x.Compares(1, 2) || !x.Compares(0, 2) {
		t.Error("Compares must pair R with S only")
	}
	// The untagged matrix it was made from is untouched: one source.
	parts, _ := dualParts()
	one, _ := FromPartitions(parts, "k", blocking.Identity())
	if one.TwoSources() || one.PartitionSource(2) != SourceR || !one.Compares(1, 2) || one.Pairs() != 6+0+1 {
		t.Errorf("one-source matrix: tagged %v, P=%d, want untagged, P=7", one.TwoSources(), one.Pairs())
	}
}

func TestWithSourcesValidation(t *testing.T) {
	x := dualMatrix(t)
	if _, err := x.WithSources([]Source{SourceR, SourceS}); err == nil {
		t.Error("mismatched source tags: want error")
	}
	if _, err := x.WithSources([]Source{SourceR, Source(7), SourceS}); err == nil {
		t.Error("invalid source: want error")
	}
	// Source tags and a ⊥ row do not combine, in either order.
	if _, err := x.WithMissingKeys(); err == nil {
		t.Error("⊥ row on a tagged matrix: want error")
	}
	if _, err := bottomMatrix(t).WithSources([]Source{SourceR, SourceS, SourceS}); err == nil {
		t.Error("source tags on a matrix with a ⊥ row: want error")
	}
}

// bottomMatrix is dualParts' entities with a ⊥ row: x and z lose their
// keys, so ⊥ holds 4 keyless entities (2, 1, 1 per partition) and y's
// and the rest's 3 keyed ones (1, 1, 1).
func bottomMatrix(t *testing.T) *Matrix {
	t.Helper()
	x, err := unmarkedBottom(t).WithMissingKeys()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// unmarkedBottom is bottomMatrix before WithMissingKeys.
func unmarkedBottom(t *testing.T) *Matrix {
	t.Helper()
	parts, _ := dualParts()
	x, err := FromPartitions(parts, "k", func(v string) string {
		if v == "x" {
			return ""
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestWithMissingKeys(t *testing.T) {
	x := bottomMatrix(t)
	if !x.MissingKeys() || x.BlockKey(0) != "" || x.SourceSize(0, SourceR) != 4 {
		t.Fatalf("⊥ row %v, block 0 %q, n⊥ = %d; want a ⊥ row of 4 keyless entities", x.MissingKeys(), x.BlockKey(0), x.SourceSize(0, SourceR))
	}
	for p, want := range []int{1, 1, 1} {
		if got := x.KeyedIn(p); got != want {
			t.Errorf("KeyedIn(%d) = %d, want %d", p, got, want)
		}
	}
	// The row holds all 7 entities, and its pairs are the first 4
	// columns of their triangle: C(4,2) + 4·3 = 18. z's pair adds 1.
	if x.Size(0) != 7 || x.SizeIn(0, 0) != 2 || x.BlockPairs(0) != 18 || x.Pairs() != 19 || x.TotalEntities() != 7 {
		t.Errorf("⊥ row of %d entities (%d in Π0), %d pairs, P = %d, %d entities; want 7 (2), 18, 19, 7", x.Size(0), x.SizeIn(0, 0), x.BlockPairs(0), x.Pairs(), x.TotalEntities())
	}
	// Without keyless entities there is no ⊥ row, and the matrix is the
	// one it was made from; that one is untouched either way.
	parts, _ := dualParts()
	one, _ := FromPartitions(parts, "k", blocking.Identity())
	same, err := one.WithMissingKeys()
	if err != nil || same.MissingKeys() || !reflect.DeepEqual(same, one) {
		t.Errorf("all keyed: ⊥ row %v, err %v, want the matrix unchanged", same.MissingKeys(), err)
	}
	plain := unmarkedBottom(t)
	if _, err := plain.WithMissingKeys(); err != nil || plain.MissingKeys() || plain.Size(0) != 4 || plain.Pairs() != 7 {
		t.Error("WithMissingKeys changed its receiver")
	}
}

func TestDualString(t *testing.T) {
	if s := dualMatrix(t).String(); !strings.Contains(s, "P=4") || !strings.Contains(s, "[R S S]") {
		t.Errorf("String() = %q", s)
	}
	if SourceR.String() != "R" || SourceS.String() != "S" {
		t.Error("Source strings wrong")
	}
}

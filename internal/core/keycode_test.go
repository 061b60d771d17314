package core

import (
	"math/rand"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
)

// mustTestBDM builds the running-example BDM (the codings only consult
// it for their size guards; the Encode closures are domain-independent).
func mustTestBDM(tb testing.TB) *bdm.Matrix {
	tb.Helper()
	x, err := bdm.FromPartitions(exampleParts(), exAttr, blocking.Identity())
	if err != nil {
		tb.Fatalf("FromPartitions: %v", err)
	}
	return x
}

func absInt64(v int64) int64 {
	if v < 0 {
		if v == -v { // math.MinInt64
			return 0
		}
		return -v
	}
	return v
}

// Fuzz + property tests proving each strategy's binary key coding obeys
// the contract in mapreduce/keycode.go: unequal codes decide Compare,
// equal comparison keys get equal codes, Exact codings never collide,
// and the declared group-bit prefix agrees exactly with Group. The raw
// fuzz inputs are mapped into each key type's documented domain (block
// and partition indexes are non-negative and bounded by the coding
// guards; the BlockSplit split components use −1 as the unsplit
// sentinel).

// clampPart maps a raw fuzz value into [-1, 1<<16-2]: a split component
// of a BDM small enough for the BlockSplit coding (+1 fits 16 bits).
func clampPart(v int64) int {
	return clampNonNeg(v, 1<<16) - 1
}

// clampNonNeg maps a raw fuzz value into [0, bound).
func clampNonNeg(v int64, bound int64) int {
	if v < 0 {
		v = -v
	}
	return int(v % bound)
}

func FuzzBSKeyCoding(f *testing.F) {
	f.Add(int64(0), int64(-1), int64(-1), int64(0), int64(0), int64(-1), int64(-1), int64(0))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(1), int64(0), int64(0))
	f.Add(int64(1<<31), int64(1<<15), int64(0), int64(0), int64(1<<31), int64(1<<15), int64(0), int64(0))
	// The same task on both sides, every pair of roles.
	for ra := int64(roleMember); ra <= roleLateProbe; ra++ {
		for rb := int64(roleMember); rb <= roleLateProbe; rb++ {
			f.Add(int64(7), int64(3), int64(2), ra, int64(7), int64(3), int64(2), rb)
		}
	}
	coding := bsKeyCoding(mustTestBDM(f))
	f.Fuzz(func(t *testing.T, blockA, iA, jA, roleA, blockB, iB, jB, roleB int64) {
		a := BSKey{Block: clampNonNeg(blockA, 1<<32), I: clampPart(iA), J: clampPart(jA), Role: clampNonNeg(roleA, roleLateProbe+1)}
		b := BSKey{Block: clampNonNeg(blockB, 1<<32), I: clampPart(iB), J: clampPart(jB), Role: clampNonNeg(roleB, roleLateProbe+1)}
		if err := coding.Verify(compareBSKeys, groupBSKeys, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzPRKeyCoding(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(1))
	f.Add(int64(1<<31), int64(1<<32-1), int64(1<<62), int64(1<<31), int64(1<<32-1), int64(1<<62))
	// A two-source group: the last R index against the first S index.
	f.Add(int64(3), int64(9), int64(4), int64(3), int64(9), int64(5))
	coding := prKeyCoding(mustTestBDM(f), 8)
	f.Fuzz(func(t *testing.T, rangeA, blockA, idxA, rangeB, blockB, idxB int64) {
		a := PRKey{Range: clampNonNeg(rangeA, 1<<31), Block: clampNonNeg(blockA, 1<<32), Index: absInt64(idxA)}
		b := PRKey{Range: clampNonNeg(rangeB, 1<<31), Block: clampNonNeg(blockB, 1<<32), Index: absInt64(idxB)}
		if err := coding.Verify(comparePRKeys, groupPRKeys, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKeyCodingsRandomMatrix hammers both codings with dense random
// keys drawn from a small domain, so equal comparison keys, equal
// groups, and adjacent codes all occur constantly — the regime where an
// off-by-one in the packing would collide or reorder.
func TestKeyCodingsRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := mustTestBDM(t)
	bs := bsKeyCoding(x)
	pr := prKeyCoding(x, 8)
	small := func(n int) int { return rng.Intn(n) }
	for trial := 0; trial < 50000; trial++ {
		{
			a := BSKey{Block: small(4), I: small(4) - 1, J: small(4) - 1, Role: small(roleLateProbe + 1)}
			b := BSKey{Block: small(4), I: small(4) - 1, J: small(4) - 1, Role: small(roleLateProbe + 1)}
			if err := bs.Verify(compareBSKeys, groupBSKeys, a, b); err != nil {
				t.Fatal("BSKey:", err)
			}
		}
		{
			a := PRKey{Range: small(3), Block: small(3), Index: int64(small(4))}
			b := PRKey{Range: small(3), Block: small(3), Index: int64(small(4))}
			if err := pr.Verify(comparePRKeys, groupPRKeys, a, b); err != nil {
				t.Fatal("PRKey:", err)
			}
		}
	}
}

// TestKeyCodingGuardsDisableOutOfRange pins the guard behaviour: a BDM
// too large for the packing must disable the coding (nil Encode), never
// produce a lossy one. Simulated via the bounds a test can trip without
// building a 2^32-block matrix: r for PairRange, and the partition count
// for BlockSplit, whose split components share 32 bits — 65535
// partitions are coded, 65536 fall back to the comparator.
func TestKeyCodingGuardsDisableOutOfRange(t *testing.T) {
	x := mustTestBDM(t)
	if c := prKeyCoding(x, 1<<31+1); c.Encode != nil {
		t.Error("prKeyCoding: expected disabled coding for r > 1<<31")
	}
	if c := prKeyCoding(x, 8); c.Encode == nil {
		t.Error("prKeyCoding: expected enabled coding for small r")
	}
	for m, coded := range map[int]bool{4: true, 1<<16 - 1: true, 1 << 16: false} {
		wide, err := bdm.FromCells(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if c := bsKeyCoding(wide); (c.Encode != nil) != coded {
			t.Errorf("bsKeyCoding at m=%d: coded=%v, want %v", m, c.Encode != nil, coded)
		}
	}
	// The widest coded key: its split components still order exactly.
	c := bsKeyCoding(x)
	a := BSKey{Block: 1, I: 1<<16 - 2, J: 1<<16 - 3, Role: roleProbe}
	b := BSKey{Block: 1, I: 1<<16 - 2, J: 1<<16 - 2, Role: roleMember}
	if err := c.Verify(compareBSKeys, groupBSKeys, a, b); err != nil {
		t.Error(err)
	}
}

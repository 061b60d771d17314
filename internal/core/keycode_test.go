package core

import (
	"cmp"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
)

// Fuzz + property tests proving each strategy's binary key coding obeys
// the contract in mapreduce/keycode.go: unequal codes decide Compare,
// equal comparison keys get equal codes, Exact codings never collide,
// and the declared group-bit prefix agrees exactly with Group. The raw
// fuzz inputs are truncated to the key fields' types, so the whole
// range of every field is drawn — wider than the indexes Job's limits
// let a job build.

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
	f.Fuzz(func(t *testing.T, blockA, iA, jA, roleA, blockB, iB, jB, roleB int64) {
		a := BSKey{Block: int32(blockA), I: int16(iA), J: int16(jA), Role: int8(roleA)}
		b := BSKey{Block: int32(blockB), I: int16(iB), J: int16(jB), Role: int8(roleB)}
		if err := bsKeyCoding.Verify(compareBSKeys, groupBSKeys, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzPRKeyCoding(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(1))
	f.Add(int64(1<<31), int64(1<<32-1), int64(1<<62), int64(1<<31), int64(1<<32-1), int64(1<<62))
	// A two-source group: the last R index against the first S index.
	f.Add(int64(3), int64(9), int64(4), int64(3), int64(9), int64(5))
	f.Fuzz(func(t *testing.T, rangeA, blockA, idxA, rangeB, blockB, idxB int64) {
		a := PRKey{Range: int32(rangeA), Block: int32(blockA), Index: idxA}
		b := PRKey{Range: int32(rangeB), Block: int32(blockB), Index: idxB}
		if err := prKeyCoding.Verify(comparePRKeys, groupPRKeys, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKeyCodingsRandomMatrix hammers both codings with dense random
// keys drawn from a small domain, so equal comparison keys, equal
// groups, and adjacent codes all occur constantly — the regime where an
// off-by-one in the packing would collide or reorder. Each field's
// domain straddles zero and the sign bit the packing flips.
func TestKeyCodingsRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small := func(n int) int { return rng.Intn(n) }
	// around draws near zero or, half the time, near the type's minimum.
	around := func(min int64) int64 {
		if rng.Intn(2) == 0 {
			return int64(small(4) - 1)
		}
		return min + int64(small(3))
	}
	for trial := 0; trial < 50000; trial++ {
		{
			a := BSKey{Block: int32(around(math.MinInt32)), I: int16(around(math.MinInt16)), J: int16(small(4) - 1), Role: int8(around(math.MinInt8))}
			b := BSKey{Block: int32(around(math.MinInt32)), I: int16(around(math.MinInt16)), J: int16(small(4) - 1), Role: int8(around(math.MinInt8))}
			if err := bsKeyCoding.Verify(compareBSKeys, groupBSKeys, a, b); err != nil {
				t.Fatal("BSKey:", err)
			}
		}
		{
			a := PRKey{Range: int32(around(math.MinInt32)), Block: int32(small(3)), Index: around(math.MinInt64)}
			b := PRKey{Range: int32(around(math.MinInt32)), Block: int32(small(3)), Index: around(math.MinInt64)}
			if err := prKeyCoding.Verify(comparePRKeys, groupPRKeys, a, b); err != nil {
				t.Fatal("PRKey:", err)
			}
		}
		a, b := int32(around(math.MinInt32)), int32(around(math.MinInt32))
		if err := basicKeyCoding.Verify(cmp.Compare[int32], nil, a, b); err != nil {
			t.Fatal("Basic's block id:", err)
		}
	}
}

// TestKeyLimitsRefuseOutOfRange pins the limits under which the narrow
// key fields, and so the codings, are exact: Job refuses more than
// MaxInt32 blocks or reduce tasks, and BlockSplit more than MaxInt16
// partitions. The bounds are checked on numbers, and through Job where
// a matrix that size is cheap.
func TestKeyLimitsRefuseOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name             string
		blocks, m, r, mx int
		ok               bool
	}{
		{"within", 10, 4, 8, math.MaxInt16, true},
		{"m at the limit", 10, math.MaxInt16, 8, math.MaxInt16, true},
		{"m past the limit", 10, math.MaxInt16 + 1, 8, math.MaxInt16, false},
		{"m unbounded", 10, math.MaxInt16 + 1, 8, math.MaxInt, true},
		{"blocks at the limit", math.MaxInt32, 4, 8, math.MaxInt16, true},
		{"blocks past the limit", math.MaxInt32 + 1, 4, 8, math.MaxInt, false},
		{"r at the limit", 10, 4, math.MaxInt32, math.MaxInt16, true},
		{"r past the limit", 10, 4, math.MaxInt32 + 1, math.MaxInt, false},
	} {
		if err := keyLimits("test", c.blocks, c.m, c.r, c.mx); (err == nil) != c.ok {
			t.Errorf("%s: keyLimits(blocks=%d, m=%d, r=%d, max m=%d) = %v, want ok=%v", c.name, c.blocks, c.m, c.r, c.mx, err, c.ok)
		}
	}

	x, err := bdm.FromPartitions(exampleParts(), exAttr, blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{BlockSplit{}, PairRange{}} {
		if _, err := strat.Job(x, math.MaxInt32+1, nil); err == nil {
			t.Errorf("%s.Job accepted r = MaxInt32+1", strat.Name())
		}
	}
	for m, ok := range map[int]bool{math.MaxInt16: true, math.MaxInt16 + 1: false} {
		wide, err := bdm.FromCounts(nil, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (BlockSplit{}).Job(wide, 1, nil); (err == nil) != ok {
			t.Errorf("BlockSplit.Job at m=%d: err = %v, want ok=%v", m, err, ok)
		}
		if _, err := (PairRange{}).Job(wide, 1, nil); err != nil {
			t.Errorf("PairRange.Job at m=%d: %v", m, err)
		}
	}
}

package bdm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blocking"
	"repro/internal/entity"
)

// TestMatrixInvariants is the quick-check for DESIGN.md invariant 5:
// for any random partitioned input, (a) every block's per-partition
// sizes sum to its total and, per source, to its source sizes, (b)
// block totals sum to the input size, (c) a block's pairs are n(n−1)/2
// for one source and |R|·|S| for two, and pair offsets are their prefix
// sums ending at P, and (d) entity offsets partition each block's
// entities of one source contiguously.
func TestMatrixInvariants(t *testing.T) {
	checkMatrixInvariants(t, false)
}

// TestDualMatrixInvariants checks the same invariants with random R/S
// tags on the partitions.
func TestDualMatrixInvariants(t *testing.T) {
	checkMatrixInvariants(t, true)
}

func checkMatrixInvariants(t *testing.T, tagged bool) {
	f := func(seed int64, nRaw uint16, mRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 400)
		m := int(mRaw%6) + 1
		blocks := int(bRaw%12) + 1
		parts := make(entity.Partitions, m)
		for i := 0; i < n; i++ {
			p := rng.Intn(m)
			parts[p] = append(parts[p], entity.New(
				fmt.Sprintf("e%d", i), "k", fmt.Sprintf("b%02d", rng.Intn(blocks))))
		}
		x, err := FromPartitions(parts, "k", blocking.Identity())
		if err != nil {
			return false
		}
		if tagged {
			sources := make([]Source, m)
			for p := range sources {
				sources[p] = Source(rng.Intn(2))
			}
			if x, err = x.WithSources(sources); err != nil {
				return false
			}
		}
		totalEntities := 0
		var pairSum int64
		for k := 0; k < x.NumBlocks(); k++ {
			var sum [2]int // per source: entities, also the next entity offset
			for p := 0; p < m; p++ {
				src := x.PartitionSource(p)
				if x.EntityOffset(k, p) != sum[src] {
					return false
				}
				sum[src] += x.SizeIn(k, p)
			}
			if sum[SourceR]+sum[SourceS] != x.Size(k) || sum[SourceR] != x.SourceSize(k, SourceR) || sum[SourceS] != x.SourceSize(k, SourceS) {
				return false
			}
			pairs := int64(x.Size(k)) * int64(x.Size(k)-1) / 2
			if tagged {
				pairs = int64(sum[SourceR]) * int64(sum[SourceS])
			}
			if x.BlockPairs(k) != pairs || x.PairOffset(k) != pairSum {
				return false
			}
			totalEntities += x.Size(k)
			pairSum += pairs
		}
		return totalEntities == n && pairSum == x.Pairs() && x.TotalEntities() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

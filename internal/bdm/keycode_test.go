package bdm

import (
	"testing"
)

// FuzzBDMKeyCoding proves the BDM job's key code exact and
// order-preserving against the (Block, Partition) comparator: unequal
// keys get codes in their order, equal keys equal codes, and the
// grouping key — the whole key — is the code's high word.
func FuzzBDMKeyCoding(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int32(1))
	f.Add(int32(3), int32(0), int32(3), int32(0))
	f.Add(int32(-1), int32(2), int32(0), int32(1))
	f.Add(int32(1<<31-1), int32(-1<<31), int32(-1<<31), int32(1<<31-1))
	f.Fuzz(func(t *testing.T, blockA, partA, blockB, partB int32) {
		a := Key{Block: blockA, Partition: partA}
		b := Key{Block: blockB, Partition: partB}
		if err := keyCoding.Verify(compareKeys, compareKeys, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

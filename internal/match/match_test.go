package match

import "testing"

// TestEditDistanceBlockReleaseDropsReferences: a block waiting in the
// free list must hold nothing of its last group. On the external
// dataflow a row's text aliases a ~32KB decode block, so one stale
// row would pin it. (similarity's TestLevBlockResetDropsReferences
// checks the row arrays past their lengths.)
func TestEditDistanceBlockReleaseDropsReferences(t *testing.T) {
	bm := EditDistance("title", 0.8)
	blk := bm.AcquireBlock()
	for i, title := range []string{"canon eos 5d mk ii", "canon eos 5d mk iii", "cañon eos 5d mk ii"} {
		rows, _ := blk.Probe(title, 0, i, true)
		if i == 1 && len(rows) == 0 {
			t.Fatal("second row must hit the first for the test to hold prepared state")
		}
	}
	blk.Release()
	if rows := blk.(*editBlock).Len(); rows != 0 {
		t.Fatalf("released block keeps %d rows", rows)
	}
}

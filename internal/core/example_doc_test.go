package core_test

import (
	"fmt"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
)

// The paper's pair enumeration: cell indexes of the upper triangle of a
// 5-entity block, column-wise.
func ExampleCellIndex() {
	fmt.Println(core.CellIndex(0, 1, 5)) // first pair of column 0
	fmt.Println(core.CellIndex(0, 2, 5))
	fmt.Println(core.CellIndex(2, 3, 5))
	fmt.Println(core.CellIndex(3, 4, 5)) // last pair
	// Output:
	// 0
	// 1
	// 7
	// 9
}

// Splitting P=20 pairs into r=3 ranges reproduces the paper's running
// example: ranges [0,6], [7,13], [14,19].
func ExampleNewRanges() {
	rg := core.NewRanges(20, 3)
	for k := 0; k < 3; k++ {
		lo, hi := rg.Bounds(k)
		fmt.Printf("range %d: [%d,%d]\n", k, lo, hi-1)
	}
	// Output:
	// range 0: [0,6]
	// range 1: [7,13]
	// range 2: [14,19]
}

// BuildAssignment shows BlockSplit's match-task creation on a skewed
// two-block input: the large block is split, the small one is not.
func ExampleBuildAssignment() {
	parts := entity.Partitions{
		{e("a", "big"), e("b", "big"), e("c", "big"), e("d", "small")},
		{e("e", "big"), e("f", "big"), e("g", "small")},
	}
	x, _ := bdm.FromPartitions(parts, "k", blocking.Identity())
	asg := core.BuildAssignment(x, 2)
	bigIdx, _ := x.BlockIndex("big")
	smallIdx, _ := x.BlockIndex("small")
	fmt.Println("big split:", asg.Split(bigIdx))
	fmt.Println("small split:", asg.Split(smallIdx))
	// Output:
	// big split: true
	// small split: false
}

func e(id, key string) entity.Entity { return entity.New(id, "k", key) }

package core_test

import (
	"fmt"

	"repro/internal/core"
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

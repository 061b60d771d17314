package similarity_test

import (
	"fmt"

	"repro/internal/similarity"
)

func ExampleLevenshtein() {
	fmt.Println(similarity.Levenshtein("kitten", "sitting"))
	// Output: 3
}

func ExampleLevenshteinSimilarity() {
	fmt.Printf("%.2f\n", similarity.LevenshteinSimilarity("canon eos 5d", "canon eos 5d!"))
	// Output: 0.92
}

func ExampleLevBlock() {
	// The paper's match rule: normalized similarity >= 0.8.
	var b similarity.LevBlock
	b.Use(similarity.NewThresholder(0.8))
	b.Add("acme rocket skates")
	b.Add("bolt cutter")
	fmt.Println(b.Probe("acme rocket skates!", false))
	b.Reset()
	// Output: [0] [0.9473684210526316]
}

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

func ExampleThresholder_Match() {
	// The paper's match rule: normalized similarity >= 0.8.
	th := similarity.NewThresholder(0.8)
	title := similarity.Prepare("acme rocket skates")
	fmt.Println(th.Match(title, similarity.Prepare("acme rocket skates!")))
	fmt.Println(th.Match(title, similarity.Prepare("bolt cutter")))
	// Output:
	// 0.9473684210526316 true
	// 0 false
}

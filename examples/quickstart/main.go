// Quickstart: deduplicate a small product catalog with the PairRange
// load-balancing strategy, end to end through the two-job MapReduce
// workflow (BDM computation + load-balanced matching).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/match"
)

func main() {
	// A tiny product catalog with a few near-duplicate titles. The
	// blocking key (first three letters of the title) puts candidate
	// duplicates into the same block.
	titles := []string{
		"canon eos 5d mark iii",
		"canon eos 5d mk iii",
		"canon eos 5d mark iv",
		"nikon d850 body",
		"nikon d850 body only",
		"sony alpha a7 iii",
		"sony alpha a7iii",
		"panasonic lumix gh5",
		"olympus om-d e-m1",
		"fuji x-t4 mirrorless",
	}
	entities := make([]entity.Entity, len(titles))
	for i, t := range titles {
		entities[i] = entity.New(fmt.Sprintf("p%02d", i), "title", t)
	}

	// Two entities match when their titles' normalized edit-distance
	// similarity reaches 0.8 — the paper's match rule. The matcher loads
	// each reduce group's titles into one block and decides every new
	// title against the block's rows in one call. The Source abstraction
	// feeds the pipeline (FromEntities splits round-robin into 2 map
	// partitions); with no Sink configured, matches are collected into
	// res.Matches, canonically sorted.
	cfg := er.Config{
		Strategy: core.PairRange{},
		Attr:     "title",
		BlockKey: blocking.NormalizedPrefix(3),
		Matcher:  match.EditDistance("title", 0.8),
		R:        3,
	}
	res, err := er.RunPipeline(context.Background(), er.FromEntities(entities, 2), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("blocks: %d, candidate pairs after blocking: %d (of %d in the Cartesian product)\n",
		res.BDM.NumBlocks(), res.BDM.Pairs(), len(entities)*(len(entities)-1)/2)
	fmt.Printf("comparisons performed: %d\n", res.Comparisons)
	fmt.Println("matches:")
	for _, p := range res.Matches {
		fmt.Printf("  %s == %s\n", p.A, p.B)
	}

	// The same run with a streaming sink: matches flow straight from
	// the reduce tasks to the writer (NDJSON here) and are never
	// accumulated in memory — the output path for larger-than-RAM
	// results.
	fmt.Println("\nstreamed as NDJSON:")
	cfg.Sink = er.NewNDJSONSink(os.Stdout)
	if _, err := er.RunPipeline(context.Background(), er.FromEntities(entities, 2), cfg); err != nil {
		log.Fatal(err)
	}
}

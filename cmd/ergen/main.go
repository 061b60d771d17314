// Command ergen generates the synthetic evaluation datasets as CSV.
//
// Usage:
//
//	ergen -dataset ds1 -scale 0.1 -out ds1.csv
//	ergen -dataset exp -n 10000 -blocks 100 -skew 0.8 -out skewed.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/entity"
)

func main() {
	var (
		dataset = flag.String("dataset", "ds1", "ds1, ds2, or exp (exponential skew)")
		scale   = flag.Float64("scale", 0.05, "scale factor for ds1/ds2")
		n       = flag.Int("n", 10000, "entity count for -dataset exp")
		blocks  = flag.Int("blocks", 100, "block count for -dataset exp")
		skew    = flag.Float64("skew", 0.5, "skew factor s for -dataset exp")
		seed    = flag.Int64("seed", 42, "random seed for -dataset exp")
		out     = flag.String("out", "", "output file (default stdout)")
		stats   = flag.Bool("stats", false, "print Figure 8-style dataset statistics to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var (
		entities []entity.Entity
		attrs    []string
	)
	switch *dataset {
	case "ds1":
		entities = datagen.Generate(datagen.DS1Spec(*scale))
		attrs = []string{datagen.AttrTitle}
	case "ds2":
		entities = datagen.Generate(datagen.DS2Spec(*scale))
		attrs = []string{datagen.AttrTitle}
	case "exp":
		entities = datagen.Exponential(*n, *blocks, *skew, *seed)
		attrs = []string{datagen.AttrBlock, datagen.AttrTitle}
	default:
		usage(fmt.Errorf("unknown dataset %q (want ds1, ds2, or exp)", *dataset))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := entity.WriteCSV(w, entities, attrs); err != nil {
		fail(err)
	}
	if *stats {
		st := datagen.ComputeStats(entities, datagen.AttrTitle, datagen.BlockKey())
		if *dataset == "exp" {
			st = datagen.ComputeStats(entities, datagen.AttrBlock, func(v string) string { return v })
		}
		fmt.Fprintf(os.Stderr, "entities=%d blocks=%d largest=%d (%.1f%% of entities) pairs=%d (%.1f%% in largest)\n",
			st.Entities, st.Blocks, st.LargestBlock, 100*st.LargestBlockFrac, st.Pairs, 100*st.LargestPairsFrac)
	}
}

// fail reports a runtime error (exit 1); usage reports a bad
// invocation with exit 2, matching the other er commands.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "ergen: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "ergen: %v\n", err)
	fmt.Fprintln(os.Stderr, "run 'ergen -h' for usage")
	os.Exit(2)
}

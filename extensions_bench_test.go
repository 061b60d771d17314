package repro_test

import (
	"context"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// BenchmarkExtensionMissingKeys runs the Section III decomposition
// (blocked + Cartesian parts) end to end.
func BenchmarkExtensionMissingKeys(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.005))
	// Knock the blocking key out of 5% of the entities.
	key := func(v string) string {
		if len(v) > 0 && v[0] == 'q' { // ~1/26 of prefixes
			return ""
		}
		return blocking.Prefix(3)(v)
	}
	parts := entity.SplitRoundRobin(es, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := er.RunWithMissingKeysPipeline(context.Background(), er.FromPartitions(parts), er.Config{
			Strategy:   core.BlockSplit{},
			Attr:       datagen.AttrTitle,
			BlockKey:   key,
			R:          8,
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Comparisons), "comparisons")
		}
	}
}

// BenchmarkExtensionMemoryCap quantifies the balance cost of bounding
// reduce-side buffers (BlockSplit.MaxEntitiesPerTask).
func BenchmarkExtensionMemoryCap(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	x, err := bdmOf(es, 20)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		def, err := core.BlockSplit{}.Plan(x, 20, 100)
		if err != nil {
			b.Fatal(err)
		}
		capped, err := core.BlockSplit{MaxEntitiesPerTask: 32}.Plan(x, 20, 100)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(capped.MaxReduceComparisons()) / float64(def.MaxReduceComparisons())
	}
	b.ReportMetric(ratio, "capped/uncapped-maxload")
}

func bdmOf(es []entity.Entity, m int) (*bdm.Matrix, error) {
	return bdm.FromPartitions(entity.SplitRoundRobin(es, m), datagen.AttrTitle, datagen.BlockKey())
}

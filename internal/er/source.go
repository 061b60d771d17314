package er

import (
	"fmt"
	"io"
	"os"

	"repro/internal/entity"
)

// Source supplies a pipeline's partitioned input. The partition count
// determines m, the number of map tasks; a Source just abstracts where
// those partitions come from — an in-memory slice, a
// CSV stream, a data generator — so every pipeline (one-source, two-source,
// missing-keys) consumes one input shape.
//
// Partitions is called once per pipeline run. Sources backed by
// one-shot streams (FromCSV over a network reader, say) are therefore
// single-use; file- and memory-backed sources are reusable.
type Source interface {
	Partitions() (entity.Partitions, error)
}

// SourceFunc adapts a plain function to the Source interface — the hook
// for data generators and any custom ingestion:
//
//	src := er.SourceFunc(func() (entity.Partitions, error) {
//		return entity.SplitRoundRobin(datagen.Generate(datagen.DS1Spec(0.02)), 8), nil
//	})
type SourceFunc func() (entity.Partitions, error)

// Partitions implements Source.
func (f SourceFunc) Partitions() (entity.Partitions, error) { return f() }

// FromPartitions wraps already-partitioned input. The partitions are
// used as-is.
func FromPartitions(parts entity.Partitions) Source {
	return SourceFunc(func() (entity.Partitions, error) { return parts, nil })
}

// FromCSV reads a CSV dataset (entity.WriteCSV format) into m
// round-robin partitions whose strings alias the input's bytes
// (entity.ReadPartitionsCSV): the input is held once, as text, and
// nothing is allocated per row. The reader is consumed by the first
// Partitions call, so the source is single-use.
func FromCSV(r io.Reader, m int) Source {
	return SourceFunc(func() (entity.Partitions, error) {
		return entity.ReadPartitionsCSV(r, m)
	})
}

// FromCSVFile is FromCSV over a file path. The file is opened and
// closed per Partitions call, so the source is reusable.
func FromCSVFile(path string, m int) Source {
	return SourceFunc(func() (entity.Partitions, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("er: open csv source: %w", err)
		}
		defer f.Close()
		return entity.ReadPartitionsCSV(f, m)
	})
}

package entity

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
)

// WriteCSV writes entities as CSV with a header row. The first column is
// always "id"; the remaining columns are the given attribute names in
// order. Missing attributes are written as empty strings.
func WriteCSV(w io.Writer, entities []Entity, attrs []string) error {
	cw := csv.NewWriter(w)
	header := append([]string{"id"}, attrs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("entity: write csv header: %w", err)
	}
	row := make([]string, len(header))
	for _, e := range entities {
		row[0] = e.ID
		for i, a := range attrs {
			row[i+1] = e.Attr(a)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("entity: write csv row for %s: %w", e.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ScanCSV streams entities from CSV produced by WriteCSV (or any CSV
// whose first column is an id and whose header names the attribute
// columns), invoking fn once per row in input order. Only one row is
// materialized at a time, so callers can partition or filter arbitrarily
// large datasets without holding the full entity slice; a non-nil error
// from fn stops the scan and is returned unwrapped.
func ScanCSV(r io.Reader, fn func(Entity) error) error {
	return scanCSV(r, 0, fn)
}

// attrSlabRows is how many rows' attribute arrays the loaders that keep
// every row (ReadCSV, ReadPartitionsCSV) carve from one allocation.
const attrSlabRows = 1024

// scanCSV is ScanCSV with the rows' attribute arrays carved from slabs
// of slabRows rows each (0 = one allocation per row, which a caller that
// keeps few rows needs: a kept row would otherwise pin its slab). A
// loader that keeps every row loses nothing to the slab and spares the
// collector an object per row — on a 120 k-row file a third of the
// objects it has to mark on each of the cycles the growing heap causes.
func scanCSV(r io.Reader, slabRows int, fn func(Entity) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// The reader allocates each row's fields as one fresh string; only
	// the slice holding them is reused.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("entity: read csv header: %w", err)
	}
	if len(header) == 0 || header[0] != "id" {
		return fmt.Errorf("entity: csv header must start with %q, got %v", "id", header)
	}
	header = slices.Clone(header)
	width := len(header) - 1
	slab := []Attr{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("entity: read csv row: %w", err)
		}
		if len(rec) == 0 {
			continue
		}
		if len(slab) < width {
			slab = make([]Attr, max(slabRows, 1)*width)
		}
		e := Entity{ID: rec[0], Attrs: slab[:0:width]}
		slab = slab[width:]
		for i := 1; i < len(rec) && i < len(header); i++ {
			e.setAttr(header[i], rec[i])
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// ReadCSV reads all entities into a slice, for callers that need the
// full dataset in memory.
func ReadCSV(r io.Reader) ([]Entity, error) {
	var out []Entity
	err := scanCSV(r, attrSlabRows, func(e Entity) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPartitionsCSV reads a CSV dataset into m round-robin partitions
// (the SplitRoundRobin layout) — the input path of the pipeline, whose
// partitions feed the map tasks. Every row is kept, so the rows'
// attribute arrays come from slabs (scanCSV).
func ReadPartitionsCSV(r io.Reader, m int) (Partitions, error) {
	if m <= 0 {
		return nil, fmt.Errorf("entity: ReadPartitionsCSV requires m > 0, got %d", m)
	}
	// Rows are collected in fixed-size chunks and dealt into partitions
	// of exactly the right size once the count is known: growing m slices
	// by append allocates five times their final size on the way.
	const chunkRows = 4096
	var chunks [][]Entity
	n := 0
	err := scanCSV(r, attrSlabRows, func(e Entity) error {
		if n%chunkRows == 0 {
			chunks = append(chunks, make([]Entity, 0, chunkRows))
		}
		last := &chunks[len(chunks)-1]
		*last = append(*last, e)
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps := make(Partitions, m)
	for p := range ps {
		if rows := (n - p + m - 1) / m; rows > 0 {
			ps[p] = make(Partition, 0, rows)
		}
	}
	i := 0
	for _, chunk := range chunks {
		for _, e := range chunk {
			ps[i%m] = append(ps[i%m], e)
			i++
		}
	}
	return ps, nil
}

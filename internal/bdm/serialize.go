package bdm

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The paper's Algorithm 3 writes the BDM to the distributed file system
// as triples (blocking key, partition index, count), one per non-zero
// cell, which the second job's map tasks read at initialization time.
// WriteTo/ReadFrom implement that on-disk format: a header line with the
// partition count — and a third field with, for two sources, one R or S
// per partition, or, with missing keys, the ⊥ marker — then one
// tab-separated cell per line. Blocking keys are quoted so that keys
// containing tabs or newlines survive the round trip.

// WriteTo serializes the matrix in the cell format. It returns the
// number of bytes written.
func (x *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	line := strconv.AppendInt([]byte("bdm\t"), int64(x.m), 10)
	if x.sources != nil {
		line = append(line, '\t')
		for _, s := range x.sources {
			line = append(line, s.String()...)
		}
	}
	if x.keyed != nil {
		line = append(line, "\t"+bottomMarker...)
	}
	c, err := bw.Write(append(line, '\n'))
	n += int64(c)
	if err != nil {
		return n, fmt.Errorf("bdm: write header: %w", err)
	}
	for k, key := range x.keys {
		// Every cell line of a block starts with the same quoted key.
		line = append(strconv.AppendQuote(line[:0], key), '\t')
		quoted := len(line)
		for p, count := range x.sizes[k] {
			if count == 0 {
				continue
			}
			line = strconv.AppendInt(line[:quoted], int64(p), 10)
			line = strconv.AppendInt(append(line, '\t'), int64(count), 10)
			c, err := bw.Write(append(line, '\n'))
			n += int64(c)
			if err != nil {
				return n, fmt.Errorf("bdm: write cell %q: %w", key, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("bdm: flush: %w", err)
	}
	return n, nil
}

// ReadFrom parses a matrix previously written by WriteTo. It reads r to
// the end first — the matrix is larger than its text — and parses the
// text in place: a key without escapes is a substring of it, the counts
// are sized from the line count, and no per-line slice is built. Keys
// are numbered as they arrive: a line whose key equals the previous
// line's continues that block, and a larger key opens the next block
// id. A key below the previous one is refused, so FromCounts gets the
// ids with no sort and no search.
func ReadFrom(r io.Reader) (*Matrix, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("bdm: read: %w", err)
	}
	text := sb.String()
	if text == "" {
		return nil, fmt.Errorf("bdm: empty input")
	}
	header, text := cutLine(text)
	name, parts, ok := strings.Cut(header, "\t")
	parts, tags, tagged := strings.Cut(parts, "\t")
	if !ok || name != "bdm" || strings.Contains(tags, "\t") {
		return nil, fmt.Errorf("bdm: line 1: malformed header %q", header)
	}
	m, err := strconv.Atoi(parts)
	if err != nil || m <= 0 {
		return nil, fmt.Errorf("bdm: line 1: malformed partition count %q", parts)
	}
	var sources []Source
	bottom := tags == bottomMarker
	if tagged && !bottom {
		if sources, err = parseSources(tags, m); err != nil {
			return nil, fmt.Errorf("bdm: line 1: %w", err)
		}
	}
	keys := []string{}
	counts := make([]CountRecord, 0, strings.Count(text, "\n")+1)
	for line := 2; text != ""; line++ {
		var row string
		row, text = cutLine(text)
		quoted, rest, ok1 := strings.Cut(row, "\t")
		partText, countText, ok2 := strings.Cut(rest, "\t")
		if !ok1 || !ok2 || strings.Contains(countText, "\t") {
			return nil, fmt.Errorf("bdm: line %d: want 3 fields, got %d", line, strings.Count(row, "\t")+1)
		}
		key, err := strconv.Unquote(quoted)
		switch {
		case err != nil:
			return nil, fmt.Errorf("bdm: line %d: bad key %q: %w", line, quoted, err)
		case len(keys) > 0 && key < keys[len(keys)-1]:
			return nil, fmt.Errorf("bdm: line %d: key %q out of order after %q", line, key, keys[len(keys)-1])
		case len(keys) == 0 || key != keys[len(keys)-1]:
			keys = append(keys, key)
		}
		part, err := strconv.ParseInt(partText, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bdm: line %d: bad partition %q: %w", line, partText, err)
		}
		cnt, err := strconv.Atoi(countText)
		if err != nil {
			return nil, fmt.Errorf("bdm: line %d: bad count %q: %w", line, countText, err)
		}
		counts = append(counts, CountRecord{Key: Key{Block: int32(len(keys) - 1), Partition: int32(part)}, Value: cnt})
	}
	x, err := FromCounts(keys, m, counts)
	switch {
	case err != nil || !tagged:
		return x, err
	case !bottom:
		return x.WithSources(sources)
	}
	if x, err = x.WithMissingKeys(); err == nil && !x.MissingKeys() {
		return nil, fmt.Errorf("bdm: line 1: ⊥ marker, but every entity has a key")
	}
	return x, err
}

// bottomMarker is the header field of a matrix with a ⊥ row.
const bottomMarker = "⊥"

// parseSources reads the header's source tags: one R or S per partition.
func parseSources(tags string, m int) ([]Source, error) {
	if len(tags) != m {
		return nil, fmt.Errorf("%d source tags %q for %d partitions", len(tags), tags, m)
	}
	sources := make([]Source, m)
	for p := range sources {
		switch tags[p] {
		case 'R':
		case 'S':
			sources[p] = SourceS
		default:
			return nil, fmt.Errorf("partition %d: bad source tag %q", p, tags[p])
		}
	}
	return sources, nil
}

// cutLine splits text at its first newline the way bufio.ScanLines
// does: the line loses its terminator and one carriage return before
// it, and a last line needs no terminator.
func cutLine(text string) (line, rest string) {
	line, rest, _ = strings.Cut(text, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

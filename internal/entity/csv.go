package entity

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
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

// attrSlabRows is how many rows' attribute arrays ReadPartitionsCSV
// carves from one allocation.
const attrSlabRows = 1024

// csvBlockSize is how much input is read at a time and sealed into one
// immutable block string. A variable only so that tests can make rows
// and quoted fields straddle blocks.
var csvBlockSize = 64 << 10

// csvReader is the package's record splitter. Input is read through a
// scratch buffer and sealed block by block into strings (the unfinished
// last line carried into the next block), and fields are substrings of
// their block: no allocation per row, but a field pins its block. Only
// a quoted field that holds "" or spans lines is built separately.
type csvReader struct {
	src     io.Reader // nil when replaying saved blocks
	scratch []byte
	err     error  // sticky: io.EOF, or what src returned
	block   string // the current block, consumed up to pos
	pos     int
	quoted  bool // block holds a quote somewhere
	line    int  // physical lines read so far
	fields  []string
	buf     []byte

	saved []string // the blocks to replay, cut at line ends (loadAll)
}

// fill replaces the block by its unconsumed tail plus the next stretch
// of input: a scratch buffer's worth, which a line longer than that
// doubles, so that carrying it stays linear.
func (r *csvReader) fill() {
	tail := r.block[r.pos:]
	switch {
	case r.src != nil:
		if len(r.scratch) <= len(tail) {
			r.scratch = make([]byte, max(csvBlockSize, 2*len(tail)))
		}
		n, err := io.ReadFull(r.src, r.scratch)
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		var b strings.Builder
		b.Grow(len(tail) + n)
		b.WriteString(tail)
		b.Write(r.scratch[:n])
		r.block, r.err = b.String(), err
	case len(r.saved) > 0:
		r.block, r.saved = r.saved[0], r.saved[1:]
	default:
		// Only the last saved block can leave a tail: a line without its
		// newline.
		r.block, r.err = tail, io.EOF
	}
	r.pos, r.quoted = 0, strings.IndexByte(r.block, '"') >= 0
}

// readLine returns the next physical line without its "\n" or "\r\n"
// (or, on the last line, a lone trailing "\r": encoding/csv drops it),
// and whether a newline ended it. The byte-order mark is cut here.
func (r *csvReader) readLine() (line string, nl bool, err error) {
	for {
		rest := r.block[r.pos:]
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, nl = rest[:i], true
			r.pos += i + 1
		} else if r.err == nil {
			r.fill()
			continue
		} else if rest == "" {
			return "", false, r.err
		} else {
			line, r.pos = rest, len(r.block)
		}
		r.line++
		line = strings.TrimSuffix(line, "\r")
		if r.line == 1 {
			line = strings.TrimPrefix(line, "\xef\xbb\xbf")
		}
		return line, nl, nil
	}
}

// read returns the next record's fields, valid until the next call, or
// io.EOF. It accepts and rejects exactly what csv.Reader does with
// FieldsPerRecord = -1, with the same *csv.ParseError.
func (r *csvReader) read() ([]string, error) {
	line, nl, err := r.readLine()
	for err == nil && line == "" {
		line, nl, err = r.readLine()
	}
	if err != nil {
		return nil, err
	}
	// col is the 1-based column of line[0], at is the line it is on; the
	// two go into errors the way encoding/csv counts them. A line without
	// a quote is split at its commas and cannot fail.
	fields, start, at, col := r.fields[:0], r.line, r.line, 1
	plain := !r.quoted || strings.IndexByte(line, '"') < 0
	fail := func(col int, err error) ([]string, error) {
		return nil, &csv.ParseError{StartLine: start, Line: at, Column: col, Err: err}
	}
	for {
		if plain || line == "" || line[0] != '"' {
			i := strings.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = line[:i]
			}
			if !plain {
				if j := strings.IndexByte(field, '"'); j >= 0 {
					return fail(col+j, csv.ErrBareQuote)
				}
			}
			fields = append(fields, field)
			if i < 0 {
				break
			}
			line, col = line[i+1:], col+i+1
			continue
		}
		line, col = line[1:], col+1
		buf, copied := r.buf[:0], false
		for {
			i := strings.IndexByte(line, '"')
			if i < 0 {
				// The field goes on in the next line.
				if line == "" && !nl {
					return fail(col, csv.ErrQuote)
				}
				buf, copied, col = append(buf, line...), true, col+len(line)
				if nl {
					buf, col = append(buf, '\n'), col+1
				}
				if line, nl, err = r.readLine(); err == io.EOF {
					line, nl = "", false
				} else if err != nil {
					return nil, err
				}
				if line != "" || nl {
					at, col = r.line, 1
				}
				continue
			}
			seg := line[:i]
			line, col = line[i+1:], col+i+1
			if line != "" && line[0] == '"' {
				buf, copied = append(append(buf, seg...), '"'), true
				line, col = line[1:], col+1
				continue
			}
			if line != "" && line[0] != ',' {
				return fail(col-1, csv.ErrQuote)
			}
			if copied {
				buf = append(buf, seg...)
				seg = string(buf)
			}
			fields = append(fields, seg)
			break
		}
		r.buf = buf
		if line == "" {
			break
		}
		line, col = line[1:], col+1
	}
	r.fields = fields
	return fields, nil
}

// loadAll reads the input into blocks cut at line ends, turns the reader
// to replaying them, and returns how many lines they hold: one more than
// an upper bound on the rows, exact for a file without blank lines and
// without newlines inside quotes.
func (r *csvReader) loadAll() (lines int, err error) {
	var blocks []string
	for r.err == nil {
		r.fill()
		r.pos = len(r.block)
		if r.err == nil {
			r.pos = strings.LastIndexByte(r.block, '\n') + 1
		}
		if r.pos > 0 {
			blocks = append(blocks, r.block[:r.pos])
			lines += strings.Count(r.block[:r.pos], "\n")
		}
	}
	if r.err != io.EOF {
		return 0, fmt.Errorf("entity: read csv row: %w", r.err)
	}
	if r.block != "" && !strings.HasSuffix(r.block, "\n") {
		lines++
	}
	r.src, r.saved, r.err, r.block, r.pos = nil, blocks, nil, "", 0
	return lines, nil
}

// ReadPartitionsCSV reads a CSV dataset into m round-robin partitions
// (the SplitRoundRobin layout) — the input path of the pipeline, whose
// partitions feed the map tasks, and the package's one CSV reader. The
// first column is the id and the header names the attribute columns
// (what WriteCSV writes). The dialect is what encoding/csv reads with
// FieldsPerRecord = -1 — RFC 4180 quotes, CRLF, blank lines skipped,
// ragged rows — and one leading UTF-8 byte-order mark, which
// spreadsheet exports carry, is not part of the header.
//
// Every row is kept and with it every block, so the input is read
// whole before a row is built, its line count sizes the partitions
// once, and row i is built in place at ps[i%m][i/m]. The rows' strings
// alias the blocks and their attribute arrays are carved from slabs of
// attrSlabRows rows, which spares the collector two objects per row.
// Only a file with fewer rows than lines (blank lines, newlines inside
// quotes) has its partitions copied down to size.
func ReadPartitionsCSV(r io.Reader, m int) (Partitions, error) {
	if m <= 0 {
		return nil, fmt.Errorf("entity: ReadPartitionsCSV requires m > 0, got %d", m)
	}
	rd := &csvReader{src: r}
	lines, err := rd.loadAll()
	if err != nil {
		return nil, err
	}
	header, err := rd.read()
	if err != nil {
		return nil, fmt.Errorf("entity: read csv header: %w", err)
	}
	if header[0] != "id" {
		return nil, fmt.Errorf("entity: csv header must start with %q, got %v", "id", header)
	}
	header = slices.Clone(header)
	for i := range header {
		header[i] = strings.Clone(header[i]) // the names are in every entity: they must not pin the first block
	}
	ps := make(Partitions, m)
	for p := range ps {
		if rows := (lines - 1 - p + m - 1) / m; rows > 0 { // one line is the header
			ps[p] = make(Partition, rows)
		}
	}
	width := len(header) - 1
	slab := []Attr{}
	n, p, i := 0, 0, 0
	for {
		rec, err := rd.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("entity: read csv row: %w", err)
		}
		if len(slab) < width {
			slab = make([]Attr, attrSlabRows*width)
		}
		e := Entity{ID: rec[0], Attrs: slab[:0:width]}
		slab = slab[width:]
		for c := 1; c < len(rec) && c < len(header); c++ {
			e.setAttr(header[c], rec[c])
		}
		ps[p][i] = e
		if n, p = n+1, p+1; p == m {
			p, i = 0, i+1
		}
	}
	for p := range ps {
		if rows := (n - p + m - 1) / m; rows < len(ps[p]) {
			ps[p] = append(Partition(nil), ps[p][:rows]...)
		}
	}
	return ps, nil
}

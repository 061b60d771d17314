package entity

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refReadCSV is the reader this package had before it split records
// itself — encoding/csv with FieldsPerRecord = -1 — kept as the oracle
// of the conformance table and of FuzzCSVMatchesEncodingCSV.
func refReadCSV(in string) ([]Entity, error) {
	cr := csv.NewReader(strings.NewReader(in))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("entity: read csv header: %w", err)
	}
	if len(header) == 0 || header[0] != "id" {
		return nil, fmt.Errorf("entity: csv header must start with %q, got %v", "id", header)
	}
	var out []Entity
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("entity: read csv row: %w", err)
		}
		e := Entity{ID: rec[0], Attrs: []Attr{}}
		for i := 1; i < len(rec) && i < len(header); i++ {
			e.setAttr(header[i], rec[i])
		}
		out = append(out, e)
	}
}

// readRows reads in as one partition: its rows in input order.
func readRows(in io.Reader) ([]Entity, error) {
	ps, err := ReadPartitionsCSV(in, 1)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// withBlockSize runs fn with input sealed in blocks of n bytes.
func withBlockSize(n int, fn func()) {
	defer func(old int) { csvBlockSize = old }(csvBlockSize)
	csvBlockSize = n
	fn()
}

// checkAgainstReference holds ReadPartitionsCSV (m = 1 and 3) to the
// oracle on one input: the same entities, or the
// same error down to the *csv.ParseError's lines and column. The oracle
// is fed the input without its byte-order mark.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	want, wantErr := refReadCSV(strings.TrimPrefix(in, "\xef\xbb\xbf"))
	check := func(name string, got []Entity, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s(%q): error %v, reference %v", name, in, err, wantErr)
		}
		var pe, wantPE *csv.ParseError
		if errors.As(wantErr, &wantPE) && (!errors.As(err, &pe) || !reflect.DeepEqual(pe, wantPE)) {
			t.Fatalf("%s(%q): error %#v, reference %#v", name, in, pe, wantPE)
		}
		if err == nil && !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%q) = %v, reference %v", name, in, got, want)
		}
	}
	for _, m := range []int{1, 3} {
		ps, err := ReadPartitionsCSV(strings.NewReader(in), m)
		var rows []Entity
		for i := 0; i < ps.Total(); i++ {
			rows = append(rows, ps[i%m][i/m])
		}
		check(fmt.Sprintf("ReadPartitionsCSV m=%d", m), rows, err)
	}
}

// csvConformance is hand-written input covering the dialect: what the
// reader must accept, normalise and reject.
var csvConformance = []struct {
	name, in string
	want     []Entity // nil when the input is rejected
	err      error    // the *csv.ParseError's Err, nil for other errors
	line     int      // the *csv.ParseError's Line
}{
	{name: "plain", in: "id,title\na,foo\nb,bar\n", want: []Entity{mk("a", "foo"), mk("b", "bar")}},
	{name: "quoted comma", in: "id,title\na,\"x, y\"\n", want: []Entity{mk("a", "x, y")}},
	{name: "doubled quote", in: "id,title\na,\"say \"\"hi\"\"\"\n", want: []Entity{mk("a", `say "hi"`)}},
	{name: "quoted LF", in: "id,title\na,\"x\ny\"\nb,z\n", want: []Entity{mk("a", "x\ny"), mk("b", "z")}},
	{name: "quoted CRLF", in: "id,title\r\na,\"x\r\ny\"\r\n", want: []Entity{mk("a", "x\ny")}},
	{name: "quoted id", in: "\"id\",title\n\"a\",foo\n", want: []Entity{mk("a", "foo")}},
	{name: "CRLF file", in: "id,title\r\na,foo\r\nb,bar\r\n", want: []Entity{mk("a", "foo"), mk("b", "bar")}},
	{name: "no final newline", in: "id,title\na,foo", want: []Entity{mk("a", "foo")}},
	{name: "lone final CR", in: "id,title\na,foo\r", want: []Entity{mk("a", "foo")}},
	{name: "inner CR kept", in: "id,title\na,f\roo\n", want: []Entity{mk("a", "f\roo")}},
	{name: "blank lines", in: "\nid,title\n\n\r\na,foo\n\n\nb,bar\n\n", want: []Entity{mk("a", "foo"), mk("b", "bar")}},
	{name: "short row", in: "id,title,brand\na\n", want: []Entity{{ID: "a", Attrs: []Attr{}}}},
	{name: "long row", in: "id,title\na,foo,extra,more\n", want: []Entity{mk("a", "foo")}},
	{name: "empty value", in: "id,title\na,\n", want: []Entity{mk("a", "")}},
	{name: "unsorted header", in: "id,title,brand\na,t,b\n",
		want: []Entity{{ID: "a", Attrs: []Attr{{"brand", "b"}, {"title", "t"}}}}},
	{name: "duplicate header", in: "id,title,title\na,first,second\n", want: []Entity{mk("a", "second")}},
	{name: "byte-order mark", in: "\xef\xbb\xbfid,title\na,foo\n", want: []Entity{mk("a", "foo")}},
	{name: "second mark is data", in: "\xef\xbb\xbf\xef\xbb\xbfid,title\na,foo\n"},
	{name: "header only", in: "id,title\n", want: []Entity{}},
	{name: "empty file", in: ""},
	{name: "only blank lines", in: "\n\r\n\n"},
	{name: "header without id", in: "name,title\nx,y\n"},
	{name: "bare quote", in: "id,title\na,foo\nb,ba\"r\n", err: csv.ErrBareQuote, line: 3},
	{name: "bare quote in header", in: "id,ti\"tle\n", err: csv.ErrBareQuote, line: 1},
	{name: "text after closing quote", in: "id,title\na,\"foo\"x\n", err: csv.ErrQuote, line: 2},
	{name: "unterminated quote", in: "id,title\na,\"foo\nb,bar\n", err: csv.ErrQuote, line: 3},
	{name: "unterminated quote at once", in: "id,title\na,\"", err: csv.ErrQuote, line: 2},
}

// TestCSVConformance runs the table at the production block size and at
// sizes that put every row, and the quoted fields, across block
// boundaries; each input is also held to the reference.
func TestCSVConformance(t *testing.T) {
	for _, size := range []int{64 << 10, 16, 5, 1} {
		withBlockSize(size, func() {
			for _, c := range csvConformance {
				got, err := readRows(strings.NewReader(c.in))
				var pe *csv.ParseError
				switch {
				case c.want != nil:
					if err != nil || !reflect.DeepEqual(append([]Entity{}, got...), c.want) {
						t.Errorf("block %d, %s: got %v, %v; want %v", size, c.name, got, err, c.want)
					}
				case err == nil:
					t.Errorf("block %d, %s: accepted as %v", size, c.name, got)
				case c.err != nil && (!errors.Is(err, c.err) || !errors.As(err, &pe) || pe.Line != c.line):
					t.Errorf("block %d, %s: error %v, want %v on line %d", size, c.name, err, c.err, c.line)
				}
				checkAgainstReference(t, c.in)
			}
		})
	}
}

// TestCSVAttrsInvariant: whatever the header's order and repeats, an
// entity's Attrs are sorted by name and unique.
func TestCSVAttrsInvariant(t *testing.T) {
	all, err := readRows(strings.NewReader("id,z,a,m,a,z\nx,1,2,3,4,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Attr{{"a", "4"}, {"m", "3"}, {"z", "5"}}
	if len(all) != 1 || !slices.Equal(all[0].Attrs, want) {
		t.Fatalf("got %v, want %v", all, want)
	}
}

// TestCSVLongLine: a row many blocks long is carried until its end is
// read, whole and once.
func TestCSVLongLine(t *testing.T) {
	long := strings.Repeat("x", 1000)
	in := "id,title\na," + long + "\nb,\"" + long + "\n" + long + "\"\nc,z\n"
	withBlockSize(7, func() {
		got, err := readRows(strings.NewReader(in))
		want := []Entity{mk("a", long), mk("b", long+"\n"+long), mk("c", "z")}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %d rows, err %v", len(got), err)
		}
	})
}

// TestCSVReadError: what the source fails with, other than io.EOF,
// fails the load.
func TestCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("id,title\na,foo\nb,ba"), iotestErrReader{boom})
	if _, err := readRows(r); !errors.Is(err, boom) {
		t.Fatalf("readRows error = %v, want %v", err, boom)
	}
}

type iotestErrReader struct{ err error }

func (r iotestErrReader) Read([]byte) (int, error) { return 0, r.err }

// FuzzCSVMatchesEncodingCSV: for arbitrary bytes and block sizes
// ReadPartitionsCSV at m = 1 and 3 and the encoding/csv reference either all fail alike or
// yield the same entity sequence.
func FuzzCSVMatchesEncodingCSV(f *testing.F) {
	for _, c := range csvConformance {
		f.Add(c.in, uint8(0))
		f.Add(c.in, uint8(3))
	}
	f.Add("id,a,b\n\"x\"\"\",\"\r\n\",\r\n\"\n\"", uint8(2))
	f.Fuzz(func(t *testing.T, in string, block uint8) {
		size := int(block)
		if size == 0 {
			size = 64 << 10
		}
		withBlockSize(size, func() { checkAgainstReference(t, in) })
	})
}

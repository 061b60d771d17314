package entity

import (
	"errors"
	"testing"

	"repro/internal/runio"
)

// FuzzRowCodec round-trips rows whose ID and text carry arbitrary bytes
// — tabs, newlines, invalid UTF-8 — through the run and wire codec,
// alone and followed by a second record: the encoding delimits itself.
func FuzzRowCodec(f *testing.F) {
	f.Add("p1", "canon eos 5d")
	f.Add("tab\tid", "text\nwith\ttabs")
	f.Add(string([]byte{0xff, 0x00}), string([]byte{0xc0, 0x80}))
	f.Add("", "")
	f.Fuzz(func(t *testing.T, id, text string) {
		r := Row{ID: id, Text: text}
		var c RowCodec
		enc := c.Append(nil, r)
		dec := c.NewDecoder()
		got, n, err := dec(string(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) || got != r {
			t.Fatalf("round trip: got %+v after %d of %d bytes, want %+v", got, n, len(enc), r)
		}
		swapped := Row{ID: text, Text: id}
		got, n, err = dec(string(c.Append(enc, swapped)))
		if err != nil || n != len(enc) || got != r {
			t.Fatalf("decode with a trailing record: got %+v after %d of %d bytes (%v), want %+v", got, n, len(enc), err, r)
		}
	})
}

// FuzzRowDecodeArbitrary feeds the decoder arbitrary bytes: it must
// decode a row or return a typed runio.ErrCorrupt, never panic. A
// decoded row round-trips through its own encoding.
func FuzzRowDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add((RowCodec{}).Append(nil, Row{ID: "id", Text: "text"}))
	f.Add(runio.AppendUvarint(runio.AppendString(nil, "id"), 1<<40))
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := (RowCodec{}).NewDecoder()(string(data))
		if err != nil {
			if !errors.Is(err, runio.ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := (RowCodec{}).Append(nil, r)
		if again, m, err := (RowCodec{}).NewDecoder()(string(enc)); err != nil || m != len(enc) || again != r {
			t.Fatalf("decoded %+v, whose encoding decodes to %+v after %d of %d bytes (%v)", r, again, m, len(enc), err)
		}
	})
}

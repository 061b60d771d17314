package bdm

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runio"
)

// FuzzBDMKeyCodec round-trips the BDM job's composite key through the
// external dataflow's disk codec over the whole int32 range of both
// fields, and refuses an encoding whose field overflows int32.
func FuzzBDMKeyCodec(f *testing.F) {
	f.Add(int32(0), int32(0), int64(0))
	f.Add(int32(17575), int32(3), int64(1)<<31)
	f.Add(int32(-1<<31), int32(1<<31-1), int64(-1)<<31-1)
	f.Fuzz(func(t *testing.T, block, partition int32, wide int64) {
		c, ok := runio.Lookup[Key]()
		if !ok {
			t.Fatal("bdm.Key codec not registered")
		}
		k := Key{Block: block, Partition: partition}
		enc := c.Append(nil, k)
		got, n, err := c.NewDecoder()(string(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) || got != k {
			t.Fatalf("round trip: got (%+v, %d), want (%+v, %d)", got, n, k, len(enc))
		}
		if int64(int32(wide)) == wide {
			return
		}
		over := runio.AppendVarint(runio.AppendVarint(nil, int64(block)), wide)
		if _, _, err := c.NewDecoder()(string(over)); !errors.Is(err, runio.ErrCorrupt) {
			t.Fatalf("partition %d decoded with err = %v, want runio.ErrCorrupt", wide, err)
		}
	})
}

// FuzzMatrixSerialize round-trips a matrix through the quoted-key text
// format of WriteTo/ReadFrom — the same arbitrary-byte-key concern as
// the runio codecs, on the other on-disk artifact of the workflow. tags
// is the header's third field: "" for one source, valid tags make a
// two-source matrix, the ⊥ marker a matrix with missing keys when a key
// is empty, and any other tags — or a ⊥ marker over cells without an
// empty key — spliced into a header must be rejected with an error
// naming line 1. With two keys, the text with its two cell lines swapped
// must be rejected with an error naming the line out of order.
func FuzzMatrixSerialize(f *testing.F) {
	f.Add("canon", "nikon", 2, 1, 3, "")
	f.Add("tab\tkey", "nl\nkey", 0, 0, 1, "")
	f.Add(string([]byte{0xff, 0xfe}), string([]byte{0x00}), 1, 2, 9, "")
	f.Add("canon", "nikon", 2, 1, 3, "RSSR")
	f.Add("canon", "nikon", 2, 1, 3, "RSxR")
	f.Add("", "nikon", 2, 1, 3, bottomMarker)
	f.Add("", "", 3, 3, 1, bottomMarker)
	f.Add("canon", "nikon", 2, 1, 3, bottomMarker)
	f.Add("", "nikon", 2, 1, 3, bottomMarker+"R")
	f.Fuzz(func(t *testing.T, key1, key2 string, p1, p2, count int, tags string) {
		m := 4
		norm := func(p int) int {
			p %= m
			if p < 0 {
				p += m
			}
			return p
		}
		if count < 0 {
			count = -count
		}
		keys := []string{key1}
		counts := []CountRecord{cell(0, norm(p1), count%1000+1)}
		switch {
		case key2 > key1:
			keys, counts = append(keys, key2), append(counts, cell(1, norm(p2), 1))
		case key2 < key1:
			keys, counts = []string{key2, key1}, []CountRecord{cell(0, norm(p2), 1), cell(1, norm(p1), count%1000+1)}
		}
		x, err := FromCounts(keys, m, counts)
		if err != nil {
			t.Fatalf("FromCounts: %v", err)
		}
		sources, badTags := parseSources(tags, m)
		switch {
		case tags == bottomMarker:
			if x, err = x.WithMissingKeys(); err != nil {
				t.Fatalf("WithMissingKeys: %v", err)
			}
			if x.MissingKeys() != (key1 == "" || key2 == "") {
				t.Fatalf("keys %q, %q: ⊥ row %v", key1, key2, x.MissingKeys())
			}
			badTags = nil
			if !x.MissingKeys() {
				badTags = errors.New("⊥ marker without an empty key")
			}
		case tags != "" && badTags == nil:
			if x, err = x.WithSources(sources); err != nil {
				t.Fatalf("WithSources: %v", err)
			}
		}
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if tags != "" && badTags != nil {
			if strings.ContainsAny(tags, "\r\n") {
				return // not one header field
			}
			bad := strings.Replace(buf.String(), "\n", "\t"+tags+"\n", 1)
			if _, err := ReadFrom(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 1:") {
				t.Fatalf("ReadFrom of header tags %q: err = %v, want an error naming line 1", tags, err)
			}
			return
		}
		back, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadFrom: %v\ninput:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, x) {
			t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", x, back)
		}
		if key1 == key2 {
			return
		}
		// The larger key's cell line ahead of the smaller one's is refused
		// where the smaller key arrives.
		lines := strings.SplitAfter(buf.String(), "\n")
		lines[1], lines[2] = lines[2], lines[1]
		if _, err := ReadFrom(strings.NewReader(strings.Join(lines, ""))); err == nil || !strings.Contains(err.Error(), "line 3:") {
			t.Fatalf("ReadFrom of swapped cell lines: err = %v, want an error naming line 3\ninput:\n%s", err, buf.String())
		}
	})
}

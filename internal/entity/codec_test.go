package entity

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/runio"
)

func TestEntityCodecRegistered(t *testing.T) {
	if _, ok := runio.Lookup[Entity](); !ok {
		t.Fatal("entity.Codec not registered with runio")
	}
}

// FuzzEntityCodec round-trips entities whose ID and attributes carry
// arbitrary bytes — tabs, newlines, invalid UTF-8 — through the disk
// codec. One decoder decodes the entity and then a second one carved
// from the same Attr arena: the first must be unchanged by it, and
// growing the first must leave the second unchanged.
func FuzzEntityCodec(f *testing.F) {
	f.Add("p1", "title", "canon eos 5d", "price", "1299")
	f.Add("tab\tid", "attr\nname", "value\twith\ttabs", "", "")
	f.Add(string([]byte{0xff, 0x00}), string([]byte{0xc0, 0x80}), "x", "y", "z")
	f.Add("dup", "a", "1", "a", "2")
	f.Fuzz(func(t *testing.T, id, k1, v1, k2, v2 string) {
		e := Entity{ID: id}
		if k1 != "" || v1 != "" || k2 != "" || v2 != "" {
			e.setAttr(k1, v1)
			e.setAttr(k2, v2)
		}
		var c Codec
		enc := c.Append(nil, e)
		dec := c.NewDecoder()
		got, n, err := dec(string(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip: got %+v, want %+v", got, e)
		}
		second := New(v2, k1, id)
		second.setAttr(k2, v1)
		got2, _, err := dec(string(c.Append(nil, second)))
		if err != nil || !reflect.DeepEqual(got2, second) {
			t.Fatalf("second decode: got %+v (%v), want %+v", got2, err, second)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("first entity changed by the second decode: got %+v, want %+v", got, e)
		}
		// Growing the first entity must not reach into the second's carve.
		got.setAttr("\xff\xffextra", "x")
		if !reflect.DeepEqual(got2, second) {
			t.Fatalf("second entity changed by growing the first: got %+v, want %+v", got2, second)
		}
	})
}

// FuzzEntityDecodeArbitrary feeds the decoder arbitrary bytes: it must
// error or succeed, never panic or allocate unboundedly. A success is
// re-encoded and decoded again by the same decoder, which must leave
// the first result unchanged, and growing the first result must leave
// the second unchanged.
func FuzzEntityDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add((Codec{}).Append(nil, New("id", "a", "b")))
	f.Add(runio.AppendUvarint(runio.AppendString(nil, "id"), 1<<40))
	dup := runio.AppendUvarint(runio.AppendString(nil, "id"), 2)
	for _, s := range []string{"a", "1", "a", "2"} {
		dup = runio.AppendString(dup, s)
	}
	f.Add(dup)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := (Codec{}).NewDecoder()
		e, n, err := dec(string(data))
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			want := Entity{ID: strings.Clone(e.ID)}
			for _, a := range e.Attrs {
				want.Attrs = append(want.Attrs, Attr{Name: strings.Clone(a.Name), Value: strings.Clone(a.Value)})
			}
			// A successful decode must re-encode to an equal value.
			enc := (Codec{}).Append(nil, e)
			got, _, err := dec(string(enc))
			if err != nil || !reflect.DeepEqual(got, e) {
				t.Fatalf("re-encode round trip failed: %v", err)
			}
			if !reflect.DeepEqual(e, want) {
				t.Fatalf("first entity changed by the second decode: got %+v, want %+v", e, want)
			}
			// Duplicate names leave the first carve short: growing the
			// first entity must still not reach into the second's.
			e.setAttr("\xff\xffextra", "x")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("second entity changed by growing the first: got %+v, want %+v", got, want)
			}
		}
	})
}

// A corrupt attribute count is rejected before the decoder sizes its
// Attr arena by it: every attribute takes at least two bytes, so a
// 2,000-attribute claim in a record of about 2,000 bytes is corrupt,
// and rejecting it costs far less than the 64,000-byte arena it claims.
func TestEntityDecodeRejectsCountBeforeArena(t *testing.T) {
	const claimed = 2000
	src := string(append(runio.AppendUvarint(runio.AppendString(nil, "id"), claimed), make([]byte, claimed)...))
	dec := (Codec{}).NewDecoder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := dec(src)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, runio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	arena := uint64(claimed * unsafe.Sizeof(Attr{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > arena/8 {
		t.Fatalf("rejecting a %d-attribute claim allocated %d bytes, the claimed arena is %d", claimed, got, arena)
	}
}

func TestReadPartitionsCSV(t *testing.T) {
	const csv = "id,title\np0,a\np1,b\np2,c\np3,d\np4,e\n"
	ps, err := ReadPartitionsCSV(strings.NewReader(csv), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Must match SplitRoundRobin over the same rows exactly.
	all, _ := readRows(strings.NewReader(csv))
	want := SplitRoundRobin(all, 2)
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("ReadPartitionsCSV = %v, want %v", ps, want)
	}
	if _, err := ReadPartitionsCSV(strings.NewReader(csv), 0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

// ReadPartitionsCSV carves attribute arrays from slabs, aliases its
// strings out of the input's blocks and sizes its partitions before it
// builds a row; none of it may show in what it returns.
func TestReadPartitionsCSVLarge(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,title,price\n")
	const n = 10_000 // several blocks and slabs, the last ones partial
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d,title %d,%d\n", i, i, i%7)
	}
	all, err := readRows(strings.NewReader(b.String()))
	if err != nil || len(all) != n {
		t.Fatalf("readRows: %d rows, err %v", len(all), err)
	}
	again, err := readRows(strings.NewReader(b.String()))
	if err != nil || !reflect.DeepEqual(all, again) {
		t.Fatalf("two reads of one input disagree (err %v)", err)
	}
	for _, m := range []int{1, 3, 4, 7} {
		ps, err := ReadPartitionsCSV(strings.NewReader(b.String()), m)
		if err != nil {
			t.Fatal(err)
		}
		if want := SplitRoundRobin(all, m); !reflect.DeepEqual(ps, want) {
			t.Fatalf("m=%d: ReadPartitionsCSV differs from SplitRoundRobin", m)
		}
		for p := range ps {
			if len(ps[p]) != cap(ps[p]) {
				t.Fatalf("m=%d: partition %d has %d rows in a %d-row array", m, p, len(ps[p]), cap(ps[p]))
			}
		}
	}
	// Rows are neighbours in a slab: growing one must not reach the next.
	grown := all[0]
	grown.setAttr("zzz", "x")
	if grown.Attr("zzz") != "x" || !reflect.DeepEqual(all[1], again[1]) {
		t.Fatalf("row 1 after growing row 0: %v", all[1])
	}
}

func TestReadPartitionsCSVFewRows(t *testing.T) {
	ps, err := ReadPartitionsCSV(strings.NewReader("id,title\np0,a\np1,b\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 || ps.Total() != 2 || len(ps[0]) != 1 || len(ps[1]) != 1 || ps[2] != nil || ps[3] != nil {
		t.Fatalf("ReadPartitionsCSV = %v", ps)
	}
}

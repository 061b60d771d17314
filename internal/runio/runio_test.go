package runio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// roundTrip encodes v with c, decodes it back, and checks value and
// consumed-length agreement, plus self-delimitation against trailing
// garbage.
func roundTrip[T comparable](t *testing.T, c Codec[T], v T) {
	t.Helper()
	enc := c.Append(nil, v)
	dec := c.NewDecoder()
	got, n, err := dec(string(enc))
	if err != nil {
		t.Fatalf("decode(%v): %v", v, err)
	}
	if got != v || n != len(enc) {
		t.Fatalf("decode(Append(%v)) = (%v, %d), want (%v, %d)", v, got, n, v, len(enc))
	}
	// Self-delimitation: trailing bytes of a next record must be left
	// untouched.
	got, n, err = dec(string(enc) + "\xde\xad")
	if err != nil || got != v || n != len(enc) {
		t.Fatalf("decode with tail = (%v, %d, %v), want (%v, %d, nil)", got, n, err, v, len(enc))
	}
}

func TestBuiltinCodecs(t *testing.T) {
	for _, s := range []string{"", "a", "hello", "tab\tnewline\nquote\"", string([]byte{0xff, 0xfe, 0x00}), "日本語"} {
		roundTrip[string](t, StringCodec{}, s)
	}
	for _, v := range []int{0, 1, -1, 42, -127, math.MaxInt, math.MinInt} {
		roundTrip[int](t, IntCodec{}, v)
	}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		roundTrip[int64](t, Int64Codec{}, v)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1.5, -3.25, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		roundTrip[float64](t, Float64Codec{}, v)
	}
	// NaN != NaN, so check bit-level round trip separately.
	enc := Float64Codec{}.Append(nil, math.NaN())
	got, _, err := Float64Codec{}.NewDecoder()(string(enc))
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN round trip = (%v, %v)", got, err)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup[string](); !ok {
		t.Fatal("built-in string codec not registered")
	}
	type unregistered struct{ X int }
	if _, ok := Lookup[unregistered](); ok {
		t.Fatal("Lookup for unregistered type succeeded")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// A huge claimed string length must error, not allocate.
	bad := AppendUvarint(nil, 1<<40)
	if _, _, err := (StringCodec{}).NewDecoder()(string(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge string length: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := (StringCodec{}).NewDecoder()(""); !errors.Is(err, ErrCorrupt) {
		t.Fatal("empty input must be corrupt")
	}
	if _, _, err := (Float64Codec{}).NewDecoder()("\x01\x02\x03"); !errors.Is(err, ErrCorrupt) {
		t.Fatal("short float64 must be corrupt")
	}
}

// writeTestRun writes records ("p<partition>-r<i>" payloads) into a run
// with the given per-partition counts and returns the info.
func writeTestRun(t *testing.T, path string, counts []int) *Info {
	t.Helper()
	w, err := Create(path, len(counts), 0)
	if err != nil {
		t.Fatal(err)
	}
	var c StringCodec
	for p, n := range counts {
		for i := 0; i < n; i++ {
			rec := c.Append(nil, testPayload(p, i))
			if err := w.Append(p, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func testPayload(p, i int) string {
	return string(rune('A'+p)) + "-" + string(rune('0'+i%10))
}

func TestRunWriteRead(t *testing.T) {
	counts := []int{3, 0, 5, 1, 0}
	path := filepath.Join(t.TempDir(), "test.run")
	info := writeTestRun(t, path, counts)

	if info.Records != 9 {
		t.Fatalf("info.Records = %d, want 9", info.Records)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := StringCodec{}.NewDecoder()
	for p, n := range counts {
		sr := NewSegmentReader(f, info.Segments[p], info.Path)
		for i := 0; i < n; i++ {
			rec, err := sr.Next()
			if err != nil {
				t.Fatalf("partition %d record %d: %v", p, i, err)
			}
			got, used, err := dec(rec)
			if err != nil || got != testPayload(p, i) {
				t.Fatalf("partition %d record %d: got %q err %v", p, i, got, err)
			}
			if used != len(rec) {
				t.Fatalf("partition %d record %d: %d trailing bytes", p, i, len(rec)-used)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("partition %d: want EOF after %d records, got %v", p, n, err)
		}
	}
}

// TestCreateRefusesCodeWidth: records carry no key code since run
// version 2, so Create refuses a nonzero width before touching the
// filesystem.
func TestCreateRefusesCodeWidth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coded.run")
	if w, err := Create(path, 4, 16); err == nil {
		w.Abort()
		t.Fatal("Create with a 16-byte code width succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused Create left %s behind (stat: %v)", path, err)
	}
}

func TestRunInfoSelfDescribing(t *testing.T) {
	counts := []int{2, 0, 4}
	path := filepath.Join(t.TempDir(), "self.run")
	want := writeTestRun(t, path, counts)
	got, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != want.Records || got.Bytes != want.Bytes || got.FileBytes != want.FileBytes {
		t.Fatalf("ReadInfo totals = %+v, want %+v", got, want)
	}
	for p := range want.Segments {
		if got.Segments[p] != want.Segments[p] {
			t.Fatalf("segment %d = %+v, want %+v", p, got.Segments[p], want.Segments[p])
		}
	}
}

func TestRunInfoCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.run")
	writeTestRun(t, path, []int{1, 1})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A header claiming a huge partition count must be rejected before
	// any allocation is sized by it.
	hugeParts := append([]byte(runMagic), runVersion, 0)
	hugeParts = AppendUvarint(hugeParts, 1<<57)
	hugeParts = append(hugeParts, make([]byte, 16)...)
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("NOPE"), data[4:]...),
		"truncated":       data[:len(data)-3],
		"no trailer":      data[:7],
		"huge partitions": hugeParts,
	}
	for name, corrupt := range cases {
		p := filepath.Join(dir, name+".run")
		if err := os.WriteFile(p, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadInfo(p); err == nil {
			t.Errorf("%s: ReadInfo succeeded on corrupt file", name)
		}
	}
}

func TestWriterRejectsDescendingPartitions(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "desc.run"), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("y")); err == nil {
		t.Fatal("descending partition accepted")
	}
}

func TestSegmentReaderCorruptLength(t *testing.T) {
	// A record whose length prefix claims more bytes than the segment
	// holds must error, not hang or over-allocate.
	var buf bytes.Buffer
	buf.Write(AppendUvarint(nil, 1<<50))
	sr := NewSegmentReader(bytes.NewReader(buf.Bytes()), Segment{Off: 0, Len: int64(buf.Len()), Records: 1}, "")
	if _, err := sr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "123": 123, "64k": 64 << 10, "64K": 64 << 10, "16m": 16 << 20,
		"16MB": 16 << 20, "1g": 1 << 30, " 8 kb ": 8 << 10,
	}
	for in, want := range cases {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = (%d, %v), want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "x", "12q", "9223372036854775807g"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) succeeded", bad)
		}
	}
}

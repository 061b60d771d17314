package runio

import (
	"bytes"
	"testing"
)

// FuzzStringCodec proves arbitrary byte content — tabs, newlines,
// invalid UTF-8, NULs — survives the length-prefixed encoding.
func FuzzStringCodec(f *testing.F) {
	f.Add("")
	f.Add("plain")
	f.Add("tab\there\nand\r\nnewlines")
	f.Add(string([]byte{0xff, 0xfe, 0xc0, 0x00}))
	f.Fuzz(func(t *testing.T, s string) {
		var c StringCodec
		enc := c.Append(nil, s)
		got, n, err := c.NewDecoder()(string(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != s || n != len(enc) {
			t.Fatalf("round trip: got (%q, %d), want (%q, %d)", got, n, s, len(enc))
		}
	})
}

// FuzzIntCodecs round-trips signed values through the varint codecs.
func FuzzIntCodecs(f *testing.F) {
	f.Add(int64(0), 0)
	f.Add(int64(-1), -1)
	f.Add(int64(1)<<62, 1<<31)
	f.Fuzz(func(t *testing.T, v64 int64, v int) {
		enc := Int64Codec{}.Append(nil, v64)
		got64, n, err := Int64Codec{}.NewDecoder()(string(enc))
		if err != nil || got64 != v64 || n != len(enc) {
			t.Fatalf("int64 %d: got (%d, %d, %v)", v64, got64, n, err)
		}
		enc = IntCodec{}.Append(nil, v)
		got, n, err := IntCodec{}.NewDecoder()(string(enc))
		if err != nil || got != v || n != len(enc) {
			t.Fatalf("int %d: got (%d, %d, %v)", v, got, n, err)
		}
	})
}

// FuzzStringDecodeArbitrary feeds arbitrary bytes to the decoder: it
// must either error or consume a prefix, never panic or over-allocate,
// and a decoded string re-encodes to exactly the prefix it consumed.
func FuzzStringDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'b'})
	f.Add(AppendUvarint(nil, 1<<40))
	f.Add([]byte{0x83, 0x00, 'a', 'b', 'c'}) // non-minimal length
	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := StringCodec{}.NewDecoder()(string(data))
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if enc := AppendString(nil, s); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoded %q from %x, which re-encodes to %x", s, data[:n], enc)
		}
	})
}

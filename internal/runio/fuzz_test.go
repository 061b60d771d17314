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
// must either error or consume a prefix, never panic or over-allocate.
func FuzzStringDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'b'})
	f.Add(AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := StringCodec{}.NewDecoder()
		s, n, err := dec(string(data))
		if err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			// The decoded string's bytes are the tail of the consumed
			// prefix (the length prefix itself may be a non-minimal
			// varint on corrupt input, which the decoder tolerates).
			if !bytes.HasSuffix(data[:n], []byte(s)) {
				t.Fatalf("decoded %q not a suffix of consumed prefix", s)
			}
			// Re-encoding must round-trip to the same value.
			got, _, err := dec(string(AppendString(nil, s)))
			if err != nil || got != s {
				t.Fatalf("re-encode round trip: (%q, %v)", got, err)
			}
		}
	})
}

package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/runio"
)

// FuzzRecDecode feeds arbitrary bytes to the run store's record decoder.
// A record on disk is key ‖ value and carries no key code, so a decode
// must either fail with a runio.ErrCorrupt, or give a Rec whose code is
// the one encode computes from the decoded key and whose appendRec is
// the input. The runio decoders accept non-minimal varints, and those
// re-encode shorter: then appendRec must give a shorter record that
// decodes to the same Rec and re-encodes to itself.
func FuzzRecDecode(f *testing.F) {
	rs := &runStore[string, int]{
		encode: StringPrefixCode,
		kc:     runio.StringCodec{},
		vc:     runio.IntCodec{},
	}
	for _, rec := range []Rec[string, int]{
		{Key: "", Value: 0},
		{Key: "abc", Value: -7},
		{Key: "longer-than-the-sixteen-byte-prefix", Value: 1 << 40},
	} {
		valid := rs.appendRec(nil, &rec)
		f.Add(valid)
		f.Add(valid[:len(valid)-1])          // truncated value
		f.Add(append(bytes.Clone(valid), 0)) // a trailing byte
		// The version-1 layout, a 16-byte key code before the key.
		code := StringPrefixCode(rec.Key)
		v1 := binary.LittleEndian.AppendUint64(nil, code.Hi)
		f.Add(append(binary.LittleEndian.AppendUint64(v1, code.Lo), valid...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x83, 0x00, 'a', 'b', 'c', 0x0d}) // non-minimal key length
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := rs.newRecDecoder()
		var got Rec[string, int]
		if err := dec.decode(string(data), &got); err != nil {
			if !errors.Is(err, runio.ErrCorrupt) {
				t.Fatalf("decode error %v is not a runio.ErrCorrupt", err)
			}
			return
		}
		if want := StringPrefixCode(got.Key); got.code != want {
			t.Fatalf("decoded code %v, want encode(%q) = %v", got.code, got.Key, want)
		}
		enc := rs.appendRec(nil, &got)
		if bytes.Equal(enc, data) {
			return
		}
		var again Rec[string, int]
		if len(enc) >= len(data) {
			t.Fatalf("appendRec of the decoded record is %x, input %x", enc, data)
		}
		if err := dec.decode(string(enc), &again); err != nil || again != got {
			t.Fatalf("re-encoded record %x decodes to %+v (%v), want %+v", enc, again, err, got)
		}
		if !bytes.Equal(rs.appendRec(nil, &again), enc) {
			t.Fatalf("re-encoded record %x does not re-encode to itself", enc)
		}
	})
}

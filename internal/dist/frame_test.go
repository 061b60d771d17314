package dist

// Framing tests: a frame round-trips header and payload exactly, and
// every malformed frame — truncated anywhere, wrong magic or version, a
// length over its bound or at odds with the body — fails with ErrFrame
// and hands the caller neither a payload nor a header.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func buildFrame(t *testing.T, meta any, payload []byte) []byte {
	t.Helper()
	head, err := frameHead(meta, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, head, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	req := TaskRequest{JobID: "abc", Phase: "reduce", M: 4, Task: 3, Attempt: 2, Records: 7,
		Sources: []SegmentRef{{MapTask: 1, URLs: []string{"http://a/run/1", "http://m/replica/9"}, Off: 16, Len: 99, Records: 7, CodeWidth: 16}}}
	// Every byte value, so nothing in the payload path escapes or trims.
	payload := make([]byte, 70000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, pl := range [][]byte{nil, {}, {0}, payload} {
		frame := buildFrame(t, &req, pl)
		for _, size := range []int64{-1, int64(len(frame))} {
			var got TaskRequest
			back, err := readFrame(bytes.NewReader(frame), size, &got)
			if err != nil {
				t.Fatalf("payload %d bytes, size %d: %v", len(pl), size, err)
			}
			if !bytes.Equal(back, pl) || (len(pl) == 0 && back != nil) {
				t.Fatalf("payload %d bytes came back as %d bytes (nil=%v)", len(pl), len(back), back == nil)
			}
			if got.JobID != req.JobID || got.Task != 3 || len(got.Sources) != 1 || got.Sources[0].URLs[1] != req.Sources[0].URLs[1] {
				t.Fatalf("header came back as %+v", got)
			}
		}
	}
}

func TestFrameMalformed(t *testing.T) {
	good := buildFrame(t, &TaskRequest{JobID: "j", Phase: "map", Records: 2}, []byte("payload-bytes"))
	hlen := int(binary.LittleEndian.Uint32(good[4:]))
	patch := func(off int, b ...byte) []byte {
		f := bytes.Clone(good)
		copy(f[off:], b)
		return f
	}
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cases := []struct {
		name  string
		frame []byte
		size  int64
		want  string
	}{
		{"empty body", nil, -1, "truncated prefix"},
		{"a JSON client", []byte(`{"job":{"name":"er/match"},"phase":"map","input":"AAAA"}`), -1, "bad magic"},
		{"another build's version", patch(3, frameVersion+1), -1, "frame version"},
		{"oversize header claim", patch(4, le32(maxFrameHeader+1)...), -1, "header length"},
		{"oversize payload claim", patch(8, le64(maxFramePayload+1)...), -1, "payload length"},
		{"payload claim past the body", patch(8, le64(1<<20)...), -1, "claimed bytes"},
		{"payload claim past the declared size", patch(8, le64(1<<20)...), int64(len(good)), "-byte body"},
		{"header claim past the body", patch(4, le32(uint32(len(good)))...), -1, "truncated header"},
		{"short payload", good[:len(good)-1], -1, "claimed bytes"},
		{"bytes after the payload", append(bytes.Clone(good), 'x'), -1, "bytes after"},
		{"declared size disagrees", good, int64(len(good)) + 1, "-byte body"},
		{"header is not JSON", patch(framePrefixLen, bytes.Repeat([]byte{'!'}, hlen)...), -1, "header:"},
	}
	for _, tc := range cases {
		got := TaskRequest{JobID: "untouched"}
		payload, err := readFrame(bytes.NewReader(tc.frame), tc.size, &got)
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrFrame mentioning %q", tc.name, err, tc.want)
		}
		if payload != nil || got.JobID != "untouched" {
			t.Errorf("%s: a failed read returned payload %q and header %+v", tc.name, payload, got)
		}
	}
	// Cut anywhere, a frame is an error — with the cause kept for callers
	// that tell a hang-up from garbage.
	for cut := 0; cut < len(good); cut++ {
		got := TaskRequest{JobID: "untouched"}
		payload, err := readFrame(bytes.NewReader(good[:cut]), -1, &got)
		if !errors.Is(err, ErrFrame) || payload != nil || got.JobID != "untouched" {
			t.Fatalf("frame cut at %d of %d: err %v, payload %q, header %+v", cut, len(good), err, payload, got)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut at %d: err %v does not carry the reader's EOF", cut, err)
		}
	}
}

func TestFrameHeadRefusesOversize(t *testing.T) {
	huge := TaskRequest{JobID: strings.Repeat("x", maxFrameHeader)}
	if _, err := frameHead(&huge, 0); !errors.Is(err, ErrFrame) {
		t.Fatalf("header over the bound: err = %v, want ErrFrame", err)
	}
	if _, err := frameHead(&TaskRequest{}, maxFramePayload+1); !errors.Is(err, ErrFrame) {
		t.Fatalf("payload over the bound: err = %v, want ErrFrame", err)
	}
}

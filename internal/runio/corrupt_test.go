package runio

// Corruption and truncation table tests: every malformed run file must
// fail with a *CorruptError naming the file, the byte offset, and what
// the parser expected there — never a bare EOF or a silent short read —
// and must still satisfy errors.Is(err, ErrCorrupt).

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeCorruptibleRun builds a small valid 3-partition run (partition 1
// left empty) and returns its path and index.
func writeCorruptibleRun(t *testing.T) (string, *Info) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.run")
	w, err := Create(path, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{[]byte("alpha"), []byte("bravo-longer-record")} {
		if err := w.Append(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(2, []byte("charlie")); err != nil {
		t.Fatal(err)
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return path, info
}

// checkCorrupt asserts the full error contract of a failed read.
func checkCorrupt(t *testing.T, err error, path string) *CorruptError {
	t.Helper()
	if err == nil {
		t.Fatal("corrupted run read succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not match ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not carry a *CorruptError", err)
	}
	if ce.Path != path {
		t.Fatalf("CorruptError.Path = %q, want %q", ce.Path, path)
	}
	if ce.Off < 0 {
		t.Fatalf("CorruptError.Off = %d, want a real offset", ce.Off)
	}
	if ce.What == "" {
		t.Fatal("CorruptError.What empty")
	}
	return ce
}

func TestReadInfoCorruptionTable(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages a pristine copy of the run file's bytes.
		mutate func(b []byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"header magic flipped", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		// A version-1 run, whose records began with a 16-byte key code.
		{"wrong version", func(b []byte) []byte { b[4] = runVersion - 1; return b }},
		{"implausible partition count", func(b []byte) []byte {
			// 5-byte uvarint claiming ~2^34 partitions in a tiny file.
			head := append([]byte{}, b[:5]...)
			return append(append(head, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), b[6:]...)
		}},
		{"truncated to header", func(b []byte) []byte { return b[:8] }},
		{"truncated mid-records", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated footer", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailer magic flipped", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"trailer offset out of range", func(b []byte) []byte {
			// The fixed64 trailer offset sits just before the magic.
			for i := len(b) - 12; i < len(b)-4; i++ {
				b[i] = 0xEE
			}
			return b
		}},
		{"segment lengths disagree with trailer offset", func(b []byte) []byte {
			// Point the trailer offset one byte early: the entries parse
			// but the length sum no longer lands on the trailer.
			b[len(b)-12]--
			return b
		}},
	}
	pristine, _ := writeCorruptibleRun(t)
	orig, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.run")
			if err := os.WriteFile(path, tc.mutate(append([]byte{}, orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadInfo(path)
			checkCorrupt(t, err, path)
		})
	}
	// Sanity: the pristine file still parses and matches the writer's
	// in-memory index.
	info, err := ReadInfo(pristine)
	if err != nil {
		t.Fatalf("pristine run failed to parse: %v", err)
	}
	if info.Records != 3 || len(info.Segments) != 3 {
		t.Fatalf("pristine index = %+v", info)
	}
}

func TestSegmentReaderTruncation(t *testing.T) {
	path, info := writeCorruptibleRun(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg := info.Segments[0]

	// Truncate inside the second record's body: the first record reads
	// fine, the second fails with file + offset instead of an EOF.
	cut := seg.Off + seg.Len - 4
	sr := NewSegmentReader(bytes.NewReader(orig[:cut]), seg, path)
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err = sr.Next()
	ce := checkCorrupt(t, err, path)
	if ce.Off < seg.Off || ce.Off > seg.Off+seg.Len {
		t.Fatalf("CorruptError.Off = %d, want within segment [%d, %d]", ce.Off, seg.Off, seg.Off+seg.Len)
	}

	// Truncate before the second record's length prefix: the uvarint
	// read itself fails descriptively.
	first := int64(1 + len("alpha")) // 1-byte prefix + body
	sr = NewSegmentReader(bytes.NewReader(orig[:seg.Off+first]), seg, path)
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err = sr.Next()
	ce = checkCorrupt(t, err, path)
	if ce.Off != seg.Off+first {
		t.Fatalf("CorruptError.Off = %d, want %d (start of the missing record)", ce.Off, seg.Off+first)
	}

	// A record length exceeding the segment remainder is rejected before
	// any allocation.
	var crafted []byte
	crafted = AppendUvarint(crafted, 1<<40)
	sr = NewSegmentReader(bytes.NewReader(crafted), Segment{Off: 0, Len: int64(len(crafted)), Records: 1}, path)
	_, err = sr.Next()
	ce = checkCorrupt(t, err, path)
	if ce.Err != nil && errors.Is(ce.Err, io.EOF) {
		t.Fatalf("oversized length reported as EOF: %v", ce)
	}
}

// TestSegmentReaderTruncationSweep cuts a two-segment run whose records
// open with a 16-byte opaque prefix, one of them larger than a block,
// at every offset: each
// segment must yield exactly the records that lie wholly before the
// cut, then either io.EOF (nothing of it was cut) or a *CorruptError
// inside the segment — never a bare EOF, a wrong record or a panic.
// Inside the oversized record's body every cut takes the same path, so
// there the sweep keeps the 64 offsets around its ends and around the
// first block boundary and every 61st offset in between (cutting all
// 33 K offsets takes a second).
func TestSegmentReaderTruncationSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.run")
	w, err := Create(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// recs[p] holds partition p's records; ends[p] their end offsets.
	var recs [2][]string
	var ends [2][]int64
	for p, sizes := range [2][]int{{5, 40, 0, blockSize + 300, 7, 1}, {3, 90, 2}} {
		for i, size := range sizes {
			rec := append(make([]byte, 16), bytes.Repeat([]byte{byte('a' + 3*p + i)}, size)...)
			rec[0] = byte(i)
			if err := w.Append(p, rec); err != nil {
				t.Fatal(err)
			}
			recs[p] = append(recs[p], string(rec))
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for p, seg := range info.Segments {
		off := seg.Off
		for _, rec := range recs[p] {
			off += int64(len(AppendUvarint(nil, uint64(len(rec))))) + int64(len(rec))
			ends[p] = append(ends[p], off)
		}
	}
	bodyEnd := ends[0][3]
	bodyStart := bodyEnd - int64(len(recs[0][3]))
	boundary := info.Segments[0].Off + blockSize
	for cut := int64(0); cut <= info.FileBytes; cut++ {
		if cut > bodyStart+64 && cut < bodyEnd-64 && (cut < boundary-64 || cut > boundary+64) && cut%61 != 0 {
			continue
		}
		ra := bytes.NewReader(orig[:cut])
		for p, seg := range info.Segments {
			sr := NewSegmentReader(ra, seg, path)
			got := 0
			for {
				rec, err := sr.Next()
				if err == io.EOF {
					if got != len(recs[p]) || cut < seg.Off+seg.Len {
						t.Fatalf("cut %d segment %d: EOF after %d of %d records", cut, p, got, len(recs[p]))
					}
					break
				}
				if err != nil {
					var ce *CorruptError
					if !errors.As(err, &ce) || ce.Path != path || ce.Off < seg.Off || ce.Off > seg.Off+seg.Len {
						t.Fatalf("cut %d segment %d [%d,%d]: error %v", cut, p, seg.Off, seg.Off+seg.Len, err)
					}
					if got == len(recs[p]) || ends[p][got] <= cut {
						t.Fatalf("cut %d segment %d: record %d fails but lies before the cut: %v", cut, p, got, err)
					}
					break
				}
				if got == len(recs[p]) || rec != recs[p][got] {
					t.Fatalf("cut %d segment %d: wrong record %d (%d bytes)", cut, p, got, len(rec))
				}
				got++
			}
		}
	}
}

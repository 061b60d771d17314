package runio

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
)

// This file implements the read path of the run format: a segment
// reader that surfaces records as substrings of immutable block
// strings, so decoders (see Codec) can alias decoded string fields
// straight out of the read buffer instead of copying every field. One
// ~32KB block costs one allocation and serves hundreds of records.
//
// Aliasing makes the block's lifetime the maximum lifetime of any
// string decoded from it: a caller that retains one decoded string
// keeps the whole block reachable. The block size is kept small so that
// bound is a few tens of KB per retained string, and the engine's
// reducer contract (copy values you retain beyond the call) keeps
// well-behaved jobs from retaining blocks at all.

// blockSize is the target block size. Records larger than a block get a
// dedicated exact-size block.
const blockSize = 32 << 10

// blockScratch pools the transient []byte buffers blocks are read into
// before being sealed as strings.
var blockScratch = sync.Pool{
	New: func() any {
		b := make([]byte, blockSize)
		return &b
	},
}

// BlockSealed, when non-nil, is called once with every block refill
// seals. It is a test hook, nil in production: tests attach cleanups to
// the blocks to prove that nothing retains a decoded record.
var BlockSealed func(block string)

// SegmentReader streams the records of one segment of a run file,
// returning each record as a string aliasing an immutable block. It
// reads via ReadAt, so any number of concurrent readers (one per reduce
// task) can share a single open *os.File.
type SegmentReader struct {
	ra      io.ReaderAt
	off     int64 // file offset of the first byte not yet read into block
	unread  int64 // segment payload bytes at off not yet read into block
	records int64
	block   string
	pos     int // next unconsumed byte within block
	path    string
}

// NewSegmentReader streams seg from ra (typically the run's *os.File);
// path names the file in corruption errors ("" is allowed).
func NewSegmentReader(ra io.ReaderAt, seg Segment, path string) *SegmentReader {
	s := new(SegmentReader)
	s.Init(ra, seg, path)
	return s
}

// Init points the reader at seg of ra, like NewSegmentReader. Init
// lets callers embed the reader by value and pay no allocation per
// segment.
func (s *SegmentReader) Init(ra io.ReaderAt, seg Segment, path string) {
	*s = SegmentReader{ra: ra, off: seg.Off, unread: seg.Len, records: seg.Records, path: path}
}

// fileOff is the absolute file offset of block[pos] (for error reports).
func (s *SegmentReader) fileOff() int64 {
	return s.off - int64(len(s.block)-s.pos)
}

// refill carries the unconsumed tail of the current block into a fresh
// block and reads at least need more payload bytes into it (a full
// block when possible). The old block string is released; records
// already returned keep their own backing block alive independently.
// A read cut short by the end of the file keeps what it got, so the
// records before a truncation still decode and the first one past it
// fails at its own offset.
func (s *SegmentReader) refill(need int) error {
	tail := s.block[s.pos:]
	readN := min(int64(max(blockSize, need)-len(tail)), s.unread)
	var b strings.Builder
	b.Grow(len(tail) + int(readN))
	b.WriteString(tail)
	if readN > 0 {
		bufp := blockScratch.Get().(*[]byte)
		buf := *bufp
		if int64(cap(buf)) < readN {
			buf = make([]byte, readN)
		}
		n, err := s.ra.ReadAt(buf[:readN], s.off)
		b.Write(buf[:n])
		*bufp = buf[:cap(buf)]
		blockScratch.Put(bufp)
		if err != nil && err != io.EOF {
			return corruptAt(s.path, s.off, fmt.Sprintf("a readable %d-byte block", readN), err)
		}
		s.off += int64(n)
		s.unread -= int64(n)
	}
	s.block = b.String()
	s.pos = 0
	if BlockSealed != nil {
		BlockSealed(s.block)
	}
	if len(s.block) < need {
		return corruptAt(s.path, s.fileOff(),
			fmt.Sprintf("%d-byte record body, file ends after %d bytes (truncated)", need, len(s.block)), io.ErrUnexpectedEOF)
	}
	return nil
}

// Next returns the next record (code ‖ key ‖ value, without the length
// prefix) as a substring of an immutable block, or io.EOF after the
// last record. The returned string stays valid indefinitely — it pins
// its backing block while reachable. A truncated or corrupted segment
// fails with a *CorruptError carrying the file, the offset, and what
// was expected there — never a bare EOF mid-record.
func (s *SegmentReader) Next() (string, error) {
	if s.records <= 0 {
		return "", io.EOF
	}
	if len(s.block)-s.pos < binary.MaxVarintLen64 && s.unread > 0 {
		if err := s.refill(0); err != nil {
			return "", err
		}
	}
	l, n, err := Uvarint(s.block[s.pos:])
	if err != nil {
		return "", corruptAt(s.path, s.fileOff(), fmt.Sprintf("record length uvarint (%d records remain)", s.records), err)
	}
	s.pos += n
	if l > uint64(int64(len(s.block)-s.pos)+s.unread) {
		return "", corruptAt(s.path, s.fileOff(),
			fmt.Sprintf("record of at most %d bytes (segment remainder), got length %d",
				int64(len(s.block)-s.pos)+s.unread, l), nil)
	}
	if len(s.block)-s.pos < int(l) {
		if err := s.refill(int(l)); err != nil {
			return "", err
		}
	}
	rec := s.block[s.pos : s.pos+int(l)]
	s.pos += int(l)
	s.records--
	return rec, nil
}

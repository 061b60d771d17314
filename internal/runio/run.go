package runio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file implements the spill-run file format. One run is the sorted
// on-disk image of part of a map task's output: records sorted by
// (reduce partition, key) and laid out as contiguous per-partition
// segments, so a reduce task can stream exactly its segment of every
// run without touching the rest of the file.
//
// Layout:
//
//	header:  magic "ERN1" | version (1 byte) | uvarint numPartitions
//	records: per partition, ascending: uvarint recordLen | record bytes
//	         (record bytes = key ‖ value)
//	trailer: per partition: uvarint records | uvarint byteLen
//	         | uvarint numPartitions | fixed64 trailerOffset | magic
//
// The writer returns the segment index (Info) in memory — the engine
// that wrote a run in this process reads it back without reparsing —
// and also persists it in the trailer so a run file is self-describing
// (ReadInfo recovers the index from the file alone).

const (
	runMagic   = "ERN1"
	runVersion = 2
)

// Segment locates one reduce partition's records inside a run file.
type Segment struct {
	// Off is the file offset of the segment's first record; Len the
	// byte length of the segment including per-record length prefixes.
	Off, Len int64
	// Records is the number of records in the segment.
	Records int64
}

// Info describes a finished run file.
type Info struct {
	Path string
	// Segments is indexed by reduce partition.
	Segments []Segment
	// Records and Bytes total the segments; FileBytes is the full file
	// size including header and trailer.
	Records   int64
	Bytes     int64
	FileBytes int64
}

// Writer writes one run file. Records must be appended in ascending
// partition order (within a partition, the caller's sort order is
// preserved). Writers are single-goroutine, like the map task that owns
// them.
type Writer struct {
	f    *os.File
	bw   *bufio.Writer
	info Info
	off  int64
	base int64 // file offset where this run's section starts
	cur  int
	err  error
	// owned reports whether the writer opened f itself (Create) and so
	// closes it on Finish/Abort; section writers (NewRunWriter) share a
	// caller-owned fd and leave it open.
	owned bool
	// lenBuf is the varint scratch for Append's record-length prefix. As
	// a struct field it is heap-allocated once per run; as an Append
	// local it escapes into a fresh heap allocation per record (the
	// bufio.Writer.Write call keeps the compiler from stack-allocating
	// it), which profiling showed at ~26k allocations per external job.
	lenBuf [binary.MaxVarintLen64]byte
}

// bwPool recycles the 64KB bufio.Writer buffers across run files: a
// spill-heavy job creates many short-lived runs, and the write buffer is
// by far the largest per-run allocation.
var bwPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 64<<10) },
}

// Create opens a new run file for writing. numPartitions is the job's
// reduce task count r. The writer owns the file and closes it on
// Finish/Abort. Records carry no key code since run version 2, so the
// third parameter must be 0; it stays only because the benchmark tree
// passes it, and retires with ROADMAP item 27.
func Create(path string, numPartitions, codeWidth int) (*Writer, error) {
	if codeWidth != 0 {
		return nil, fmt.Errorf("runio: Create %s: records carry no key code, code width must be 0, got %d", path, codeWidth)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runio: create run: %w", err)
	}
	w, err := NewRunWriter(f, 0, numPartitions)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.owned = true
	return w, nil
}

// NewRunWriter starts a new run section in f at offset base, which must
// be f's current write position (sections are appended sequentially).
// The section is a complete, self-delimiting run image — header,
// records, trailer — whose Segment offsets are absolute file offsets,
// so any number of sections can share one file and one fd. The caller
// retains ownership of f: Finish flushes the section but leaves the
// file open, and nothing may write to f between NewRunWriter and
// Finish except this writer.
func NewRunWriter(f *os.File, base int64, numPartitions int) (*Writer, error) {
	path := f.Name()
	if numPartitions <= 0 {
		return nil, fmt.Errorf("runio: Create %s: numPartitions must be > 0, got %d", path, numPartitions)
	}
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(f)
	w := &Writer{
		f:    f,
		bw:   bw,
		base: base,
		info: Info{
			Path:     path,
			Segments: make([]Segment, numPartitions),
		},
	}
	var hdr []byte
	hdr = append(hdr, runMagic...)
	hdr = append(hdr, runVersion)
	hdr = binary.AppendUvarint(hdr, uint64(numPartitions))
	if _, err := w.bw.Write(hdr); err != nil {
		w.releaseBW()
		return nil, fmt.Errorf("runio: write run header: %w", err)
	}
	w.off = base + int64(len(hdr))
	for i := range w.info.Segments {
		w.info.Segments[i].Off = w.off
	}
	return w, nil
}

// Append writes one encoded record (key ‖ value bytes) into the
// given partition's segment. Partitions must be non-decreasing.
func (w *Writer) Append(partition int, rec []byte) error {
	if w.err != nil {
		return w.err
	}
	if partition < w.cur || partition >= len(w.info.Segments) {
		w.err = fmt.Errorf("runio: %s: record for partition %d after partition %d (of %d)",
			w.info.Path, partition, w.cur, len(w.info.Segments))
		return w.err
	}
	if partition > w.cur {
		for p := w.cur + 1; p <= partition; p++ {
			w.info.Segments[p].Off = w.off
		}
		w.cur = partition
	}
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(rec)))
	if _, err := w.bw.Write(w.lenBuf[:n]); err != nil {
		w.err = fmt.Errorf("runio: write record: %w", err)
		return w.err
	}
	if _, err := w.bw.Write(rec); err != nil {
		w.err = fmt.Errorf("runio: write record: %w", err)
		return w.err
	}
	written := int64(n + len(rec))
	w.off += written
	seg := &w.info.Segments[partition]
	seg.Len += written
	seg.Records++
	w.info.Records++
	w.info.Bytes += written
	return nil
}

// Finish writes the trailer, flushes, and returns the run's segment
// index. Owned files (Create) are closed; shared files (NewRunWriter)
// stay open for the caller. The writer is unusable afterwards.
func (w *Writer) Finish() (*Info, error) {
	defer w.releaseBW()
	if w.err != nil {
		w.closeOwned()
		return nil, w.err
	}
	for p := w.cur + 1; p < len(w.info.Segments); p++ {
		w.info.Segments[p].Off = w.off
	}
	trailerOff := w.off
	var tr []byte
	for _, seg := range w.info.Segments {
		tr = binary.AppendUvarint(tr, uint64(seg.Records))
		tr = binary.AppendUvarint(tr, uint64(seg.Len))
	}
	// The trailer offset is absolute, like the segment offsets, so
	// ReadInfo on a single-section file (base 0) sees the same numbers
	// the writer recorded.
	tr = binary.AppendUvarint(tr, uint64(len(w.info.Segments)))
	tr = binary.LittleEndian.AppendUint64(tr, uint64(trailerOff))
	tr = append(tr, runMagic...)
	if _, err := w.bw.Write(tr); err != nil {
		w.closeOwned()
		return nil, fmt.Errorf("runio: write run trailer: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.closeOwned()
		return nil, fmt.Errorf("runio: flush run: %w", err)
	}
	if w.owned {
		if err := w.f.Close(); err != nil {
			return nil, fmt.Errorf("runio: close run: %w", err)
		}
	}
	// FileBytes is the section's byte length (equal to the file size for
	// owned single-section files).
	w.info.FileBytes = trailerOff + int64(len(tr)) - w.base
	info := w.info
	return &info, nil
}

// Abort abandons the run without finalizing it: owned files are closed,
// shared files are left to the caller (an aborted section leaves
// partial bytes in the shared file, so the owning spiller must not
// start another section in it). The caller is expected to remove the
// temp directory the file lives in.
func (w *Writer) Abort() {
	w.releaseBW()
	w.closeOwned()
}

func (w *Writer) closeOwned() {
	if w.owned && w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// releaseBW detaches the pooled write buffer from this writer and
// returns it (idempotent; safe after Finish or Abort).
func (w *Writer) releaseBW() {
	if w.bw == nil {
		return
	}
	// Reset drops any unflushed bytes and the file reference so the
	// pooled buffer cannot write to a closed fd or pin the file.
	w.bw.Reset(io.Discard)
	bwPool.Put(w.bw)
	w.bw = nil
}

// ReadInfo recovers a run's segment index from its trailer, proving the
// format is self-describing. The in-process engine uses the Info
// returned by Finish instead; the distributed master validates every
// map task's downloaded replica with it (dist.Session.RunMapAttempt)
// before any reduce attempt reads that replica.
func ReadInfo(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runio: open run: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("runio: stat run: %w", err)
	}
	buf := make([]byte, 5+binary.MaxVarintLen64)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, corruptAt(path, 0, "a readable run header", err)
	}
	hdr := string(buf[:n])
	if len(hdr) < 6 || hdr[:4] != runMagic || hdr[4] != runVersion {
		return nil, corruptAt(path, 0, fmt.Sprintf("run magic %q version %d, got %q", runMagic, runVersion, hdr), nil)
	}
	numPartitions, pn, err := Uvarint(hdr[5:])
	if err != nil {
		return nil, corruptAt(path, 5, "partition count uvarint", err)
	}
	hdrLen := int64(5 + pn)
	// Every partition occupies at least two trailer bytes (two
	// uvarints), so a claimed count the file cannot hold is corrupt —
	// reject it before sizing any allocation by it.
	if numPartitions == 0 || numPartitions > uint64(st.Size())/2 {
		return nil, corruptAt(path, 5, fmt.Sprintf("plausible partition count for a %d-byte file, got %d", st.Size(), numPartitions), nil)
	}

	// Fixed-size footer: 8-byte trailer offset + 4-byte magic.
	if st.Size() < hdrLen+12 {
		return nil, corruptAt(path, st.Size(), fmt.Sprintf("at least %d bytes of header and footer, file has %d (truncated)", hdrLen+12, st.Size()), nil)
	}
	var foot [12]byte
	if _, err := f.ReadAt(foot[:], st.Size()-12); err != nil {
		return nil, corruptAt(path, st.Size()-12, "a readable 12-byte footer", err)
	}
	if string(foot[8:]) != runMagic {
		return nil, corruptAt(path, st.Size()-4, fmt.Sprintf("trailer magic %q, got %q", runMagic, foot[8:]), nil)
	}
	trailerOff := int64(binary.LittleEndian.Uint64(foot[:8]))
	if trailerOff < hdrLen || trailerOff > st.Size()-12 {
		return nil, corruptAt(path, st.Size()-12, fmt.Sprintf("trailer offset in [%d,%d], got %d", hdrLen, st.Size()-12, trailerOff), nil)
	}
	trBuf := make([]byte, st.Size()-12-trailerOff)
	if _, err := f.ReadAt(trBuf, trailerOff); err != nil {
		return nil, corruptAt(path, trailerOff, "a readable run trailer", err)
	}
	tr := string(trBuf)
	// The trailer holds one (records, length) pair per partition, then
	// repeats the partition count as a cross-check.
	info := &Info{Path: path, FileBytes: st.Size()}
	rest := tr
	entries := make([]Segment, 0, numPartitions)
	for i := uint64(0); i < numPartitions; i++ {
		recs, n1, err := Uvarint(rest)
		if err != nil {
			return nil, corruptAt(path, trailerOff+int64(len(tr)-len(rest)), fmt.Sprintf("record count of trailer entry %d", i), err)
		}
		rest = rest[n1:]
		l, n2, err := Uvarint(rest)
		if err != nil {
			return nil, corruptAt(path, trailerOff+int64(len(tr)-len(rest)), fmt.Sprintf("byte length of trailer entry %d", i), err)
		}
		rest = rest[n2:]
		entries = append(entries, Segment{Records: int64(recs), Len: l2i(l)})
	}
	count, n3, err := Uvarint(rest)
	if err != nil || count != numPartitions || len(rest) != n3 {
		return nil, corruptAt(path, trailerOff+int64(len(tr)-len(rest)), fmt.Sprintf("trailer cross-check count %d", numPartitions), err)
	}
	off := hdrLen
	for i := range entries {
		entries[i].Off = off
		off += entries[i].Len
		info.Records += entries[i].Records
		info.Bytes += entries[i].Len
	}
	if off != trailerOff {
		return nil, corruptAt(path, trailerOff, fmt.Sprintf("segment lengths summing to the trailer offset, got %d", off), nil)
	}
	info.Segments = entries
	return info, nil
}

func l2i(x uint64) int64 {
	if x > 1<<62 {
		return 1 << 62
	}
	return int64(x)
}

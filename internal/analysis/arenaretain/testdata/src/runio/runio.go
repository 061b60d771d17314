// Package runio is a fixture stand-in for the arena read path:
// arenaretain matches SegmentReader.Next and String by
// (package name, name), so these mini definitions taint like the real
// ones.
package runio

import "errors"

type SegmentReader struct {
	block []byte
	off   int
}

var errDone = errors.New("done")

// Next returns a record aliasing the reader's block buffer.
func (s *SegmentReader) Next() (string, error) {
	if s.off >= len(s.block) {
		return "", errDone
	}
	b := s.block[s.off:]
	s.off = len(s.block)
	return string(b), nil
}

// String decodes a length-prefixed view of src, aliasing it.
func String(src string) (string, int, error) {
	return src, len(src), nil
}

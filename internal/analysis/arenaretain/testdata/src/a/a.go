// Package a exercises the arenaretain analyzer: strings from the run
// read path alias a read block and must be cloned before being
// retained.
package a

import (
	"runio"
	"strings"
)

type record struct {
	Key   string
	Value string
}

type index struct {
	byKey map[string]string
	last  string
}

var lastSeen string

// retainClone copies before retaining: ok.
func retainClone(r *runio.SegmentReader, ix *index) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	ix.last = strings.Clone(s)
	ix.byKey[strings.Clone(s)] = strings.Clone(s)
	return nil
}

// retainConcat also copies (concatenation allocates): ok.
func retainConcat(r *runio.SegmentReader, ix *index) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	ix.last = s + ""
	return nil
}

// localBuilder fills a frame-local record from aliased strings: ok —
// this is exactly how decoders return records; the caller decides what
// to retain.
func localBuilder(r *runio.SegmentReader) (record, error) {
	s, err := r.Next()
	if err != nil {
		return record{}, err
	}
	var rec record
	rec.Key = s[:1]
	rec.Value = s[1:]
	return rec, nil
}

// retainField stores the aliased string through a pointer: flagged.
func retainField(r *runio.SegmentReader, ix *index) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	ix.last = s // want `stored in field last escapes the read frame`
	return nil
}

// retainMap: the map retains both its keys and values: flagged.
func retainMap(r *runio.SegmentReader, ix *index) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	ix.byKey[s] = "x" // want `used as a map key is retained by the map`
	ix.byKey["k"] = s // want `stored as a map value is retained by the map`
	return nil
}

// countKeys: an increment stores its map key too: flagged.
func countKeys(r *runio.SegmentReader, counts map[string]int) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	counts[s]++ // want `used as a map key is retained by the map`
	return nil
}

// retainGlobal: package-level variables outlive every frame: flagged.
func retainGlobal(r *runio.SegmentReader) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	lastSeen = s // want `stored in package-level variable lastSeen`
	return nil
}

// retainChan: the receiver may hold the string past the next refill:
// flagged.
func retainChan(r *runio.SegmentReader, ch chan string) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	ch <- s // want `sent on a channel outlives the read frame`
	return nil
}

// decoders shows taint flowing through slicing, a func-typed decoder
// value, and runio.String.
func decoders(r *runio.SegmentReader, dec func(string) (record, int, error), out *record) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	rec, _, err := dec(s)
	if err != nil {
		return err
	}
	out.Key = rec.Key // want `stored in field Key escapes the read frame`
	v, _, _ := runio.String(s[1:])
	out.Value = v // want `stored in field Value escapes the read frame`
	return nil
}

// recCodec's decoder closure receives block bytes by contract (seeded
// taint).
type recCodec struct{}

var capture index

func (recCodec) NewDecoder() func(string) (record, int, error) {
	return func(src string) (record, int, error) {
		capture.last = src // want `stored in field last escapes the read frame`
		return record{Key: src}, len(src), nil
	}
}

// transient documents a store the surrounding engine bounds to the
// current block, suppressed with a reason.
func transient(r *runio.SegmentReader, ix *index) error {
	s, err := r.Next()
	if err != nil {
		return err
	}
	//erlint:ignore arenaretain fixture: consumer contract clones before the next refill
	ix.last = s
	return nil
}

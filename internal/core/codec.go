package core

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// runio codecs for every intermediate key type the redistribution
// strategies shuffle, registered at init so all of them run unchanged
// on the external (out-of-core) dataflow. Composite keys are flat
// sequences of zig-zag varints; the values are entities, whose codec the
// entity package registers. The 128-bit binary key code is not part of
// these encodings — the engine stores it as a fixed-width record prefix.

type bsKeyCodec struct{}

func (bsKeyCodec) Append(dst []byte, k BSKey) []byte {
	dst = runio.AppendVarint(dst, int64(k.Reduce))
	dst = runio.AppendVarint(dst, int64(k.Block))
	dst = runio.AppendVarint(dst, int64(k.I))
	dst = runio.AppendVarint(dst, int64(k.J))
	return runio.AppendVarint(dst, int64(k.Role))
}

func (bsKeyCodec) NewDecoder() func(string) (BSKey, int, error) {
	return func(src string) (BSKey, int, error) {
		var k BSKey
		n, err := decodeInts(src, [5]*int{&k.Reduce, &k.Block, &k.I, &k.J, &k.Role})
		if err != nil {
			return k, 0, fmt.Errorf("BSKey: %w", err)
		}
		return k, n, nil
	}
}

type prKeyCodec struct{}

func (prKeyCodec) Append(dst []byte, k PRKey) []byte {
	dst = runio.AppendVarint(dst, int64(k.Range))
	dst = runio.AppendVarint(dst, int64(k.Block))
	return runio.AppendVarint(dst, k.Index)
}

func (prKeyCodec) NewDecoder() func(string) (PRKey, int, error) {
	return func(src string) (PRKey, int, error) {
		var k PRKey
		n, err := decodeInts(src, [5]*int{&k.Range, &k.Block})
		if err != nil {
			return k, 0, fmt.Errorf("PRKey: %w", err)
		}
		idx, in, err := runio.Varint(src[n:])
		if err != nil {
			return k, 0, fmt.Errorf("PRKey index: %w", err)
		}
		k.Index = idx
		return k, n + in, nil
	}
}

// decodeInts decodes consecutive zig-zag varints into up to five int
// fields (nil stops early), returning the bytes consumed. Taking an
// array instead of a variadic slice keeps the hot decode path free of
// the ...*int allocation.
func decodeInts(src string, dst [5]*int) (int, error) {
	n := 0
	for i, p := range dst {
		if p == nil {
			break
		}
		v, vn, err := runio.Varint(src[n:])
		if err != nil {
			return 0, fmt.Errorf("field %d: %w", i, err)
		}
		*p = int(v)
		n += vn
	}
	return n, nil
}

type matchPairCodec struct{}

func (matchPairCodec) Append(dst []byte, p MatchPair) []byte {
	dst = runio.AppendString(dst, p.A)
	return runio.AppendString(dst, p.B)
}

// NewDecoder aliases both IDs; used only by remote transport decode,
// which copies into result slices it owns.
func (matchPairCodec) NewDecoder() func(string) (MatchPair, int, error) {
	return func(src string) (MatchPair, int, error) {
		var p MatchPair
		a, n, err := runio.String(src)
		if err != nil {
			return p, 0, fmt.Errorf("MatchPair.A: %w", err)
		}
		b, bn, err := runio.String(src[n:])
		if err != nil {
			return p, 0, fmt.Errorf("MatchPair.B: %w", err)
		}
		p.A, p.B = a, b
		return p, n + bn, nil
	}
}

func init() {
	runio.Register[BSKey](bsKeyCodec{})
	runio.Register[PRKey](prKeyCodec{})
	// Distributed execution ships match outputs between processes:
	// register MatchPair and the MatchOutput pair shape. Similarities
	// travel as the float64 codec's fixed 8 bytes (exact bit pattern),
	// never as formatted decimals. The AnnotatedEntity pair codec is
	// registered by the bdm package (the shape is shared).
	runio.Register[MatchPair](matchPairCodec{})
	mapreduce.RegisterPairCodec[MatchPair, float64]()
}

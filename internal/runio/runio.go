// Package runio provides the on-disk record representation of the
// out-of-core dataflow: self-delimiting binary codecs for the concrete
// key and value types flowing through a typed MapReduce job, a
// process-wide codec registry mirroring the engine's record-pool
// registry, and the spill-run file format (a header followed by
// length-prefixed records, grouped into per-reduce-task segments) that
// the external shuffle writes at map time and streams back at reduce
// time.
//
// The package is deliberately independent of the engine: it knows
// nothing about jobs, key codes, or merge order. A record is the
// engine's opaque key ‖ value bytes (see Writer); the engine recomputes
// a decoded key's binary code, so on-disk records sort and group
// exactly like their in-memory counterparts.
//
// # The codec contract
//
// A Codec[T] serializes values of one concrete type as self-delimiting
// byte strings and hands out decode functions that parse them back from
// an immutable string source:
//
//  1. Round trip: NewDecoder()(string(Append(nil, v))) must return a
//     value semantically equal to v, consuming exactly the appended
//     bytes.
//  2. Self-delimitation: a decode function must determine the
//     encoding's length from the bytes themselves (length prefixes,
//     fixed widths); it is handed a source that may contain trailing
//     bytes of the next record.
//  3. May alias: src is an immutable Go string, so decoded values may
//     hold substrings of it without copying. Readers guarantee src
//     stays reachable as long as any substring of it is.
//  4. One goroutine per decode function: it may carry state (arenas,
//     scratch), so callers obtain one per task attempt.
//  5. No panics on corrupt input: a decode function returns an error
//     for any source it cannot parse, and must not allocate
//     proportionally to a length claimed by corrupt data (validate
//     claimed lengths against len(src) first).
//
// Values decoded this way keep block-sized backing arrays alive while
// they are reachable, which is why the engine hands them to user code
// under the "copy what you retain beyond the call" rule.
//
// Codecs are looked up once per job Run, never on a per-record path,
// and must be safe for concurrent use (stateless codecs trivially are).
package runio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// ErrCorrupt is wrapped by all decode errors caused by malformed bytes.
var ErrCorrupt = errors.New("runio: corrupt data")

// CorruptError is the typed corruption report of the run-file readers
// (ReadInfo, SegmentReader.Next): which file, at what byte offset, and
// what the parser expected there — so a truncated or corrupted spill
// run fails with an actionable message instead of a bare EOF. It
// satisfies both errors.Is(err, ErrCorrupt) and errors.As with
// *CorruptError. The per-record codec errors keep wrapping plain
// ErrCorrupt: they have no file position to report.
type CorruptError struct {
	// Path is the run file ("" when reading an anonymous source).
	Path string
	// Off is the byte offset of the failed read; -1 when unknown.
	Off int64
	// What describes what the parser expected at that point.
	What string
	// Err is the underlying cause (an I/O error, a bad value); may be
	// nil when the expectation itself failed.
	Err error
}

func (e *CorruptError) Error() string {
	msg := "runio: corrupt run"
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Off >= 0 {
		msg += fmt.Sprintf(" at offset %d", e.Off)
	}
	msg += ": expected " + e.What
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap makes the error match ErrCorrupt (always) and its underlying
// cause (when present) under errors.Is/As.
func (e *CorruptError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrCorrupt, e.Err}
	}
	return []error{ErrCorrupt}
}

// corruptAt builds the readers' standard corruption error.
func corruptAt(path string, off int64, what string, cause error) error {
	return &CorruptError{Path: path, Off: off, What: what, Err: cause}
}

// Codec serializes one concrete type T as a self-delimiting byte
// string. See the package comment for the full contract.
type Codec[T any] interface {
	// Append appends the encoding of v to dst and returns the extended
	// buffer (append-style).
	Append(dst []byte, v T) []byte
	// NewDecoder returns a decode function for one goroutine: it reads
	// one value from the front of src, returning the value and the
	// number of bytes consumed.
	NewDecoder() func(src string) (T, int, error)
}

// registry maps a reflect.Type to its Codec[T]. Like the engine's
// record-pool registry, it exists because generic package-level
// variables do not: each package registers codecs for the key and value
// types it defines (init time), and the engine looks them up by type
// when a job runs on the external dataflow.
var registry sync.Map // reflect.Type -> Codec[T]

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// Register installs the codec for type T. Registering a type twice
// panics: two packages disagreeing on a type's on-disk format is a bug,
// not a configuration.
func Register[T any](c Codec[T]) {
	if c == nil {
		panic("runio: Register called with nil codec")
	}
	if _, dup := registry.LoadOrStore(typeOf[T](), c); dup {
		panic(fmt.Sprintf("runio: codec for %v registered twice", typeOf[T]()))
	}
}

// Lookup returns the registered codec for T, or false when no package
// has registered one (the engine turns that into a descriptive error at
// job start, not a per-record failure).
func Lookup[T any]() (Codec[T], bool) {
	c, ok := registry.Load(typeOf[T]())
	if !ok {
		return nil, false
	}
	return c.(Codec[T]), true
}

// ---- encoding primitives ----
//
// The decode primitives parse from a string source: encoding/binary's
// varint readers only accept []byte, and converting string→[]byte
// copies.

// AppendUvarint appends x in unsigned LEB128 form.
func AppendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

// Uvarint decodes an unsigned LEB128 value from the front of src.
func Uvarint(src string) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < len(src); i++ {
		if i == binary.MaxVarintLen64 {
			break
		}
		b := src[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // overflows uint64
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
}

// AppendVarint appends x in zig-zag LEB128 form.
func AppendVarint(dst []byte, x int64) []byte { return binary.AppendVarint(dst, x) }

// Varint decodes a zig-zag LEB128 value from the front of src.
func Varint(src string) (int64, int, error) {
	ux, n, err := Uvarint(src)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, n, nil
}

// AppendString appends s as uvarint length + raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String decodes a length-prefixed string from the front of src. The
// returned string ALIASES src (it is a substring) — callers must only
// pass immutable sources, per the codec contract.
func String(src string) (string, int, error) {
	l, n, err := Uvarint(src)
	if err != nil {
		return "", 0, fmt.Errorf("%w: string length", ErrCorrupt)
	}
	if l > uint64(len(src)-n) {
		return "", 0, fmt.Errorf("%w: string length %d exceeds remaining %d bytes", ErrCorrupt, l, len(src)-n)
	}
	return src[n : n+int(l)], n + int(l), nil
}

// Uint64LE reads a fixed 8-byte little-endian uint64 from the front of
// src (the string-source twin of binary.LittleEndian.Uint64).
func Uint64LE(src string) (uint64, error) {
	if len(src) < 8 {
		return 0, fmt.Errorf("%w: fixed64 needs 8 bytes, have %d", ErrCorrupt, len(src))
	}
	return uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 | uint64(src[3])<<24 |
		uint64(src[4])<<32 | uint64(src[5])<<40 | uint64(src[6])<<48 | uint64(src[7])<<56, nil
}

// ---- built-in codecs ----

// StringCodec encodes strings as uvarint length + raw bytes. Arbitrary
// byte content — tabs, newlines, invalid UTF-8 — survives unchanged.
type StringCodec struct{}

func (StringCodec) Append(dst []byte, v string) []byte { return AppendString(dst, v) }

// NewDecoder implements Codec: decoded strings alias src.
func (StringCodec) NewDecoder() func(string) (string, int, error) { return String }

// IntCodec encodes ints as zig-zag varints (platform-width safe: the
// value range of int always fits int64).
type IntCodec struct{}

func (IntCodec) Append(dst []byte, v int) []byte { return AppendVarint(dst, int64(v)) }

// NewDecoder implements Codec.
func (IntCodec) NewDecoder() func(string) (int, int, error) {
	return func(src string) (int, int, error) {
		x, n, err := Varint(src)
		if err != nil {
			return 0, 0, err
		}
		if x < math.MinInt || x > math.MaxInt {
			return 0, 0, fmt.Errorf("%w: int value %d out of range", ErrCorrupt, x)
		}
		return int(x), n, nil
	}
}

// Int32Codec encodes int32s as zig-zag varints.
type Int32Codec struct{}

func (Int32Codec) Append(dst []byte, v int32) []byte { return AppendVarint(dst, int64(v)) }

// NewDecoder implements Codec.
func (Int32Codec) NewDecoder() func(string) (int32, int, error) {
	return func(src string) (int32, int, error) {
		x, n, err := Varint(src)
		if err != nil {
			return 0, 0, err
		}
		if x < math.MinInt32 || x > math.MaxInt32 {
			return 0, 0, fmt.Errorf("%w: int32 value %d out of range", ErrCorrupt, x)
		}
		return int32(x), n, nil
	}
}

// Int64Codec encodes int64s as zig-zag varints.
type Int64Codec struct{}

func (Int64Codec) Append(dst []byte, v int64) []byte { return AppendVarint(dst, v) }

// NewDecoder implements Codec.
func (Int64Codec) NewDecoder() func(string) (int64, int, error) { return Varint }

// Float64Codec encodes float64s as fixed 8-byte little-endian IEEE 754
// bits (exact round trip, including NaN payloads and signed zeros).
type Float64Codec struct{}

func (Float64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// NewDecoder implements Codec.
func (Float64Codec) NewDecoder() func(string) (float64, int, error) {
	return func(src string) (float64, int, error) {
		bits, err := Uint64LE(src)
		if err != nil {
			return 0, 0, err
		}
		return math.Float64frombits(bits), 8, nil
	}
}

func init() {
	Register[string](StringCodec{})
	Register[int](IntCodec{})
	Register[int32](Int32Codec{})
	Register[int64](Int64Codec{})
	Register[float64](Float64Codec{})
}

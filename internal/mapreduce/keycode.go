package mapreduce

import "fmt"

// This file defines the order-preserving fixed-width binary key codes
// the typed engine uses as its sort/merge/group fast path — the
// counterpart of Hadoop's RawComparator model, where the shuffle
// compares serialized key bytes instead of deserialized objects. A
// strategy packs its composite key into a 128-bit code once per record
// at map-output time, and once more per record read back from a run
// (runs store the key, not its code); every comparison in the spill
// sort and the reduce-side k-way merge heap is then one or two unsigned
// integer comparisons instead of a multi-field struct walk or string
// compare.
//
// # The encoding contract
//
// For a job with comparator Compare and coding C:
//
//  1. Order preservation (always required):
//     C.Encode(a) < C.Encode(b)  ⇒  Compare(a, b) < 0, and
//     Compare(a, b) == 0         ⇒  C.Encode(a) == C.Encode(b).
//     Equivalently: the code is a monotone prefix of the key order.
//     Unequal codes fully decide the comparison; equal codes decide
//     nothing unless the coding is Exact.
//  2. Exactness (optional): when Exact is set,
//     C.Encode(a) == C.Encode(b)  ⇒  Compare(a, b) == 0,
//     so the engine never falls back to Compare at all.
//  3. Group bits (optional): when GroupBits = g > 0, the leading g bits
//     of the code are an exact encoding of the grouping key:
//     Group(a, b) == 0  ⇔  the codes agree on their first g bits.
//
// Fixed-width-packable keys (PairRange's range‖block‖index, BlockSplit's
// block‖i‖j, …) get exact codes and never fall back. Variable-width keys
// (strings) get a 16-byte big-endian prefix code: unequal prefixes
// decide the order, equal prefixes fall back to the comparator —
// exactly Hadoop's "compare bytes, deserialize only on a tie"
// discipline.
//
// DESIGN.md ("Binary key codes") documents the contract; per-key fuzz
// and property tests in the strategy packages enforce it.

// Code is a 128-bit order-preserving binary key code, compared
// lexicographically (Hi, then Lo).
type Code struct {
	Hi, Lo uint64
}

// Cmp returns -1, 0, or +1 comparing a and b lexicographically.
func (a Code) Cmp(b Code) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	default:
		return 0
	}
}

// prefixEqual reports whether a and b agree on their first bits bits.
// bits must be in [1, 128].
func (a Code) prefixEqual(b Code, bits int) bool {
	if bits <= 64 {
		return a.Hi>>(64-uint(bits)) == b.Hi>>(64-uint(bits))
	}
	if bits >= 128 {
		return a == b
	}
	return a.Hi == b.Hi && a.Lo>>(128-uint(bits)) == b.Lo>>(128-uint(bits))
}

// KeyCoding declares a job key type's binary code. The zero value (nil
// Encode) disables the fast path; the engine then uses Compare/Group
// directly on the concrete keys (still boxing-free).
type KeyCoding[K any] struct {
	// Encode returns the key's order-preserving code (contract above).
	Encode func(K) Code
	// Exact marks the code as a complete encoding of the comparison key:
	// equal codes imply Compare == 0, so ties need no fallback.
	Exact bool
	// GroupBits, when > 0, is the number of leading code bits that
	// exactly encode the grouping key; keys group together iff those
	// bits agree. 0 means grouping falls back to the Group function.
	GroupBits int
}

// Verify checks the coding contract above on one pair of keys against
// the job's Compare and Group functions (group may be nil, meaning
// Group ≡ Compare) and returns a descriptive error on the first
// violation. It exists for the per-key fuzz and property tests each
// strategy package runs over its coding; the engine itself never calls
// it.
func (c KeyCoding[K]) Verify(compare, group func(a, b K) int, a, b K) error {
	ca, cb := c.Encode(a), c.Encode(b)
	cmp := compare(a, b)
	switch d := ca.Cmp(cb); {
	case d != 0 && d != sign(cmp):
		return fmt.Errorf("code order contradicts Compare: Encode(%v).Cmp(Encode(%v)) = %d, Compare = %d", a, b, d, cmp)
	case cmp == 0 && d != 0:
		return fmt.Errorf("equal keys got unequal codes: Compare(%v, %v) = 0 but codes differ", a, b)
	case c.Exact && d == 0 && cmp != 0:
		return fmt.Errorf("Exact coding collides: Encode(%v) == Encode(%v) but Compare = %d", a, b, cmp)
	}
	if c.GroupBits > 0 {
		g := cmp
		if group != nil {
			g = group(a, b)
		}
		if got, want := ca.prefixEqual(cb, c.GroupBits), g == 0; got != want {
			return fmt.Errorf("group bits contradict Group: prefixEqual(%d bits) = %v, Group(%v, %v) = %d", c.GroupBits, got, a, b, g)
		}
	}
	return nil
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// StringPrefixCode returns the 16-byte big-endian, zero-padded prefix
// code of s. Zero-padding is order-safe because 0x00 is the minimal
// byte: unequal codes order exactly like the strings, equal codes only
// say the first 16 bytes agree (callers must leave Exact unset).
func StringPrefixCode(s string) Code {
	return Code{Hi: stringWord(s, 0), Lo: stringWord(s, 8)}
}

// stringWord packs s[off:off+8] big-endian, zero-padding past the end.
func stringWord(s string, off int) uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w <<= 8
		if j := off + i; j < len(s) {
			w |= uint64(s[j])
		}
	}
	return w
}

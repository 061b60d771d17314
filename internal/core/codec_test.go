package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/runio"
)

// Round-trip fuzz tests for the strategy key codecs — every
// intermediate key type the redistribution strategies spill on the
// external dataflow.

func codecRoundTrip[T any](t *testing.T, v T) {
	t.Helper()
	c, ok := runio.Lookup[T]()
	if !ok {
		t.Fatalf("no codec registered for %T", v)
	}
	enc := c.Append(nil, v)
	dec := c.NewDecoder()
	got, n, err := dec(string(enc))
	if err != nil {
		t.Fatalf("decode(%+v): %v", v, err)
	}
	if n != len(enc) {
		t.Fatalf("%+v: consumed %d of %d bytes", v, n, len(enc))
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: got %+v, want %+v", got, v)
	}
	// Self-delimitation against a following record.
	enc2 := c.Append(enc, v)
	got, n, err = dec(string(enc2))
	if err != nil || n != len(enc) || !reflect.DeepEqual(got, v) {
		t.Fatalf("%+v: decode with trailing record failed (n=%d, err=%v)", v, n, err)
	}
}

func FuzzBSKeyCodec(f *testing.F) {
	f.Add(int32(0), int32(0), int16(-1), int16(-1), int8(roleMember))
	f.Add(int32(3), int32(17), int16(2), int16(0), int8(roleRow))
	f.Add(int32(-5), int32(math.MaxInt32), int16(math.MinInt16), int16(math.MaxInt16), int8(roleProbe))
	f.Add(int32(1), int32(2), int16(1), int16(1), int8(math.MinInt8))
	f.Add(int32(math.MinInt32), int32(2), int16(-1), int16(-1), int8(math.MaxInt8))
	f.Add(int32(1), int32(2), int16(-1), int16(-1), int8(roleProbe))
	f.Fuzz(func(t *testing.T, reduce, block int32, i, j int16, role int8) {
		codecRoundTrip(t, BSKey{Reduce: reduce, Block: block, I: i, J: j, Role: role})
	})
}

func FuzzPRKeyCodec(f *testing.F) {
	f.Add(int32(0), int32(0), int64(0))
	f.Add(int32(7), int32(123), int64(-9))
	f.Add(int32(-1), int32(math.MaxInt32), int64(math.MinInt64))
	// A two-source block indexes its S entities after its R entities:
	// PRKey carries no source, only a larger index.
	f.Add(int32(2), int32(5), int64(1)<<31)
	f.Fuzz(func(t *testing.T, rng, block int32, index int64) {
		codecRoundTrip(t, PRKey{Range: rng, Block: block, Index: index})
	})
}

// TestKeyCodecsRefuseOverflow: a field whose varint does not fit the
// field's type is corrupt. Truncating it would decode another key, and
// so a record of another task.
func TestKeyCodecsRefuseOverflow(t *testing.T) {
	varints := func(vs ...int64) string {
		var b []byte
		for _, v := range vs {
			b = runio.AppendVarint(b, v)
		}
		return string(b)
	}
	bs := (bsKeyCodec{}).NewDecoder()
	pr := (prKeyCodec{}).NewDecoder()
	for name, decode := range map[string]func() error{
		"BSKey.Reduce": func() error { _, _, err := bs(varints(math.MaxInt32+1, 0, 0, 0, 0)); return err },
		"BSKey.Block":  func() error { _, _, err := bs(varints(0, math.MinInt32-1, 0, 0, 0)); return err },
		"BSKey.I":      func() error { _, _, err := bs(varints(0, 0, math.MaxInt16+1, 0, 0)); return err },
		"BSKey.J":      func() error { _, _, err := bs(varints(0, 0, 0, math.MinInt16-1, 0)); return err },
		"BSKey.Role":   func() error { _, _, err := bs(varints(0, 0, 0, 0, math.MaxInt8+1)); return err },
		"PRKey.Range":  func() error { _, _, err := pr(varints(math.MaxInt32+1, 0, 0)); return err },
		"PRKey.Block":  func() error { _, _, err := pr(varints(0, math.MaxInt32+1, 0)); return err },
	} {
		if err := decode(); !errors.Is(err, runio.ErrCorrupt) {
			t.Errorf("%s out of range: err = %v, want ErrCorrupt", name, err)
		}
	}
	if k, _, err := bs(varints(math.MaxInt32, math.MinInt32, math.MaxInt16, math.MinInt16, math.MinInt8)); err != nil ||
		k != (BSKey{Reduce: math.MaxInt32, Block: math.MinInt32, I: math.MaxInt16, J: math.MinInt16, Role: math.MinInt8}) {
		t.Errorf("BSKey at its fields' limits: got %+v, %v", k, err)
	}
}

// TestStrategyValueCodecsRegistered pins the full set of intermediate
// types the strategies shuffle: a new strategy whose types lack codecs
// would silently lose external-mode support.
func TestStrategyValueCodecsRegistered(t *testing.T) {
	codecRoundTrip(t, "blocking-key")                        // Basic key
	codecRoundTrip(t, entity.Row{ID: "id", Text: "x\tx\ny"}) // every strategy's value
	for _, role := range []int8{roleMember, roleRow, roleProbe, roleLateRow, roleLateProbe} {
		codecRoundTrip(t, BSKey{Reduce: 1, Block: 2, I: -1, J: -1, Role: role})
	}
	codecRoundTrip(t, PRKey{Range: 1, Block: 2, Index: 3})
}

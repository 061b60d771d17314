package core

import (
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
	f.Add(0, 0, -1, -1, roleMember)
	f.Add(3, 17, 2, 0, roleRow)
	f.Add(-5, 1<<30, -1<<20, 7, roleProbe)
	f.Add(1, 2, 1, 1, roleMember)
	f.Add(1, 2, -1, -1, roleRow)
	f.Add(1, 2, -1, -1, roleProbe)
	f.Fuzz(func(t *testing.T, reduce, block, i, j, role int) {
		codecRoundTrip(t, BSKey{Reduce: reduce, Block: block, I: i, J: j, Role: role})
	})
}

func FuzzPRKeyCodec(f *testing.F) {
	f.Add(0, 0, int64(0))
	f.Add(7, 123, int64(-9))
	f.Add(-1, 1<<28, int64(1)<<60)
	// A two-source block indexes its S entities after its R entities:
	// PRKey carries no source, only a larger index.
	f.Add(2, 5, int64(1)<<31)
	f.Fuzz(func(t *testing.T, rng, block int, index int64) {
		codecRoundTrip(t, PRKey{Range: rng, Block: block, Index: index})
	})
}

// TestStrategyValueCodecsRegistered pins the full set of intermediate
// types the strategies shuffle: a new strategy whose types lack codecs
// would silently lose external-mode support.
func TestStrategyValueCodecsRegistered(t *testing.T) {
	codecRoundTrip(t, "blocking-key")                 // Basic key
	codecRoundTrip(t, entity.New("id", "title", "x")) // every strategy's value
	for _, role := range []int{roleMember, roleRow, roleProbe, roleLateRow, roleLateProbe} {
		codecRoundTrip(t, BSKey{Reduce: 1, Block: 2, I: -1, J: -1, Role: role})
	}
	codecRoundTrip(t, PRKey{Range: 1, Block: 2, Index: 3})
}

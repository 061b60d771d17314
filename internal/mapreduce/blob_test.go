package mapreduce_test

// Record-blob tests: DecodeRecords gives back every valid blob's
// records, rejects every way of cutting one short, and pays per block,
// not per field.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// annotatedCodec is the registered codec of both jobs' input records.
func annotatedCodec(t testing.TB) runio.Codec[bdm.Annotated] {
	t.Helper()
	c, ok := runio.Lookup[bdm.Annotated]()
	if !ok {
		t.Fatal("no codec registered for bdm.Annotated")
	}
	return c
}

// annotatedRecords returns n records whose IDs and texts carry tabs,
// newlines and invalid UTF-8, and one record with an empty text.
func annotatedRecords(n int) []bdm.Annotated {
	recs := make([]bdm.Annotated, n)
	for i := range recs {
		recs[i] = bdm.Annotated{
			Key: int32(i%7) - 3,
			Value: entity.Row{
				ID:   fmt.Sprintf("e%05d\n\xff", i),
				Text: fmt.Sprintf("title of entity %d\twith a tab, \xc0\x80 and\na newline", i),
			},
		}
	}
	recs[n/2].Value = entity.Row{ID: "no-text"}
	return recs
}

func TestDecodeRecordsRoundTripsAndRejectsDamage(t *testing.T) {
	c := annotatedCodec(t)
	for _, n := range []int{0, 1, 40} {
		recs := annotatedRecords(max(n, 1))[:n]
		blob := mapreduce.EncodeRecords(c, recs)
		got, err := mapreduce.DecodeRecords(c, blob, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if (n > 0 && !reflect.DeepEqual(got, recs)) || (n == 0 && got != nil) {
			t.Fatalf("n=%d: blob does not round-trip", n)
		}
	}

	// Cut short anywhere, lengthened, or miscounted: corrupt.
	recs := annotatedRecords(12)
	blob := mapreduce.EncodeRecords(c, recs)
	damaged := func(name string, b []byte, count int) {
		if _, err := mapreduce.DecodeRecords(c, b, count); !errors.Is(err, runio.ErrCorrupt) {
			t.Fatalf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		damaged(fmt.Sprintf("cut at %d of %d", cut, len(blob)), blob[:cut], len(recs))
	}
	damaged("one byte more", append(blob[:len(blob):len(blob)], 0), len(recs))
	damaged("one record fewer claimed", blob, len(recs)-1)
	damaged("one record more claimed", blob, len(recs)+1)
	damaged("bytes but no records", blob, 0)
}

func TestDecodeRecordsAllocatesPerBlock(t *testing.T) {
	const n = 4000 // 3 strings each
	c := annotatedCodec(t)
	blob := mapreduce.EncodeRecords(c, annotatedRecords(n))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := mapreduce.DecodeRecords(c, blob, n); err != nil {
			t.Fatal(err)
		}
	})
	// The blob sealed as one string and the record slice, where copying
	// every string would take 3 per record.
	if allocs > 4 {
		t.Errorf("%.0f allocs for %d records, want O(blocks) ≤ 4", allocs, n)
	}
}

func TestEncodeRecordsSizesItsBlobOnce(t *testing.T) {
	c := annotatedCodec(t)
	recs := annotatedRecords(4000)
	var blob []byte
	allocs := testing.AllocsPerRun(5, func() { blob = mapreduce.EncodeRecords(c, recs) })
	// The sample's buffer, perhaps grown once, and the sized blob; growing
	// from nil takes ~30 steps to reach these 270 KB.
	if allocs > 4 {
		t.Errorf("EncodeRecords: %.0f allocs for a %d-byte blob, want ≤ 4", allocs, len(blob))
	}
	if back, err := mapreduce.DecodeRecords(c, blob, len(recs)); err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("sized blob does not round-trip: %v", err)
	}
}

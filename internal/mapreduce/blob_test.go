package mapreduce_test

// Record-blob tests: the two decode paths of DecodeRecords — arena for
// a codec with a shared decoder, bytes for one without — agree on every
// valid blob and on every way of cutting one short, and the arena path
// pays per block, not per field.

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

// byteOnly hides a codec's shared decoder, which sends DecodeRecords
// down the byte path over the same encoding.
type byteOnly[T any] struct{ c runio.Codec[T] }

func (b byteOnly[T]) Append(dst []byte, v T) []byte     { return b.c.Append(dst, v) }
func (b byteOnly[T]) Decode(src []byte) (T, int, error) { return b.c.Decode(src) }

// annotatedCodec is the registered codec of both jobs' input records,
// which has a shared decoder because string and entity.Entity do.
func annotatedCodec(t testing.TB) runio.Codec[bdm.Annotated] {
	t.Helper()
	c, ok := runio.Lookup[bdm.Annotated]()
	if !ok {
		t.Fatal("no codec registered for bdm.Annotated")
	}
	if _, shared := c.(runio.SharedDecoder[bdm.Annotated]); !shared {
		t.Fatal("the pair codec of two shared-decoding halves has no shared decoder")
	}
	return c
}

func annotatedRecords(n int) []bdm.Annotated {
	recs := make([]bdm.Annotated, n)
	for i := range recs {
		recs[i] = bdm.Annotated{
			Key: fmt.Sprintf("k%02d", i%7),
			Value: entity.New(fmt.Sprintf("e%05d", i), "title", fmt.Sprintf("title of entity %d\twith a tab", i)).
				WithAttr("venue", "v").
				WithAttr("year", fmt.Sprint(1990+i%30)),
		}
	}
	recs[n/2].Value = entity.Entity{ID: "no-attrs"}
	return recs
}

func TestDecodeRecordsSharedPathEqualsBytePath(t *testing.T) {
	shared := annotatedCodec(t)
	bytePath := byteOnly[bdm.Annotated]{shared}
	for _, n := range []int{0, 1, 40} {
		recs := annotatedRecords(max(n, 1))[:n]
		blob := mapreduce.EncodeRecords(shared, recs)
		a, errA := mapreduce.DecodeRecords(shared, blob, n)
		b, errB := mapreduce.DecodeRecords[bdm.Annotated](bytePath, blob, n)
		if errA != nil || errB != nil {
			t.Fatalf("n=%d: shared err %v, byte err %v", n, errA, errB)
		}
		if !reflect.DeepEqual(a, b) || (n > 0 && !reflect.DeepEqual(a, recs)) || (n == 0 && a != nil) {
			t.Fatalf("n=%d: paths disagree or do not round-trip", n)
		}
	}

	// Cut short anywhere, lengthened, or miscounted: the same verdict.
	recs := annotatedRecords(12)
	blob := mapreduce.EncodeRecords(shared, recs)
	damaged := func(name string, b []byte, count int) {
		_, errA := mapreduce.DecodeRecords(shared, b, count)
		_, errB := mapreduce.DecodeRecords[bdm.Annotated](bytePath, b, count)
		if !errors.Is(errA, runio.ErrCorrupt) || !errors.Is(errB, runio.ErrCorrupt) {
			t.Fatalf("%s: shared err %v, byte err %v — want ErrCorrupt from both", name, errA, errB)
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

func TestDecodeRecordsSharedPathAllocatesPerBlock(t *testing.T) {
	const n = 4000 // × 3 attributes, 7 strings each
	shared := annotatedCodec(t)
	blob := mapreduce.EncodeRecords(shared, annotatedRecords(n))
	decode := func(c runio.Codec[bdm.Annotated]) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := mapreduce.DecodeRecords(c, blob, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The blob sealed as one string, the record slice, and one Attr chunk
	// per 256 attributes: 49 here, against 8 per record on the byte path.
	if got := decode(shared); got > n/50 {
		t.Errorf("shared path: %.0f allocs for %d records, want O(blocks) ≤ %d", got, n, n/50)
	}
	if got := decode(byteOnly[bdm.Annotated]{shared}); got < 4*n {
		t.Errorf("byte path: %.0f allocs for %d records — no longer per field, so this pin compares nothing", got, n)
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

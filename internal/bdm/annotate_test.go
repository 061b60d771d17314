package bdm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/entity"
)

// FuzzAnnotateNumbering holds Annotate's block ids to a map[string]int
// oracle of the sorted distinct keys: ids are dense, id order is key
// order, and equal keys get equal ids, whatever the keys' bytes. Its
// count, assembled, must be FromPartitions' matrix. data
// is a sequence of length-prefixed keys (a length byte, mod 40, then
// that many bytes), dealt round robin over m%4+1 partitions.
func FuzzAnnotateNumbering(f *testing.F) {
	key := func(ks ...string) string {
		var b []byte
		for _, k := range ks {
			b = append(append(b, byte(len(k))), k...)
		}
		return string(b)
	}
	f.Add(key("", "b", "", "a", "b"), uint8(1))
	f.Add(key("日本語", "日本人", "ün", "ü", "日本語"), uint8(2))
	f.Add(key("canon eos 5d mark iv", "canon eos 5d mark iii", "canon eos 5d mark", "canon eos 5d mark iv"), uint8(3))
	f.Add(key("abcdefghijklmnop", "abcdefghijklmnop\x00", "abcdefghijklmnopq", "abcdefghijklmno"), uint8(0))
	f.Add(key("\x00", "\x00\x00", "", "\xff\xfe"), uint8(1))
	f.Fuzz(func(t *testing.T, data string, m uint8) {
		parts := make(entity.Partitions, int(m%4)+1)
		var all []string
		for len(data) > 0 {
			n := min(int(data[0])%40, len(data)-1)
			k := data[1 : 1+n]
			data = data[1+n:]
			p := len(all) % len(parts)
			parts[p] = append(parts[p], entity.New(fmt.Sprintf("e%d", len(all)), "k", k))
			all = append(all, k)
		}
		distinct := slices.Compact(slices.Sorted(slices.Values(all)))
		oracle := make(map[string]int, len(distinct))
		for id, k := range distinct {
			oracle[k] = id
		}

		input, keys, counts := Annotate(parts, "k", blocking.Identity())
		if !slices.Equal(keys, distinct) {
			t.Fatalf("key table %q, want the sorted distinct keys %q", keys, distinct)
		}
		used := make([]bool, len(keys))
		for p, rows := range input {
			if len(rows) != len(parts[p]) {
				t.Fatalf("partition %d: %d rows, want %d", p, len(rows), len(parts[p]))
			}
			for j, row := range rows {
				e := parts[p][j]
				if want := (entity.Row{ID: e.ID, Text: e.Attr("k")}); row.Value != want {
					t.Fatalf("row %d/%d = %+v, want %+v", p, j, row.Value, want)
				}
				if id, want := int(row.Key), oracle[e.Attr("k")]; id != want {
					t.Fatalf("key %q: id %d, want %d", e.Attr("k"), id, want)
				}
				used[row.Key] = true
			}
		}
		if i := slices.Index(used, false); i >= 0 {
			t.Fatalf("id %d (key %q) names no row: ids are not dense", i, keys[i])
		}
		got, err := FromCounts(keys, len(parts), counts)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := FromPartitions(parts, "k", blocking.Identity()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("counted matrix\n%vwant FromPartitions' (err %v)\n%v", got, err, want)
		}
	})
}

package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// hashPart is an FNV-1a partitioner.
func hashPart(key string, r int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(r))
}

// BenchmarkSortedEntries measures the map-side sort alone on one map
// task's output (32,768 records dealt over 16 partitions, ~2,048 each)
// and reports what it costs per entry, for the key shapes the sort
// meets: an Exact coding, a prefix coding whose codes tie on most keys
// (Compare decides through idx), and no coding at all (every code zero).
func BenchmarkSortedEntries(b *testing.B) {
	const n, r = 1 << 15, 16
	for _, shape := range []struct {
		name   string
		encode func(string) Code
		tie    func(a, b string) int
		key    func(*rand.Rand) string
	}{
		{"exact", StringPrefixCode, nil, func(rng *rand.Rand) string {
			return fmt.Sprintf("%c%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(100))
		}},
		{"code-ties", StringPrefixCode, strings.Compare, func(rng *rand.Rand) string {
			return fmt.Sprintf("prefix-%d-padding-%s%d", rng.Intn(3), strings.Repeat("x", rng.Intn(6)), rng.Intn(60))
		}},
		{"no-coding", nil, strings.Compare, func(rng *rand.Rand) string {
			return strings.Repeat("z", rng.Intn(7)) + fmt.Sprint(rng.Intn(50))
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			recs := make([]Rec[string, int], n)
			for i := range recs {
				recs[i] = Rec[string, int]{Key: shape.key(rng), Value: i}
				if shape.encode != nil {
					recs[i].code = shape.encode(recs[i].Key)
				}
			}
			rs := &runStore[string, int]{r: r, part: hashPart, tie: shape.tie}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := rs.sortedEntries(recs)
				if err != nil {
					b.Fatal(err)
				}
				putScratch(&sortEntryPool, entries)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}

// FuzzSortedEntries holds the map-side sort to slices.SortStableFunc by
// (partition, code, idx), with the job's Compare between code and idx
// when the fuzzer asks for a coding that is not Exact. sizes gives each
// partition's entry count (so empty ones, and ones on either side of the
// insertion sort's 32, are one byte away); bit p of vary makes code byte
// p (0 is Lo's lowest, 15 Hi's highest) take values from a four-letter
// alphabet, 0x00, 0x01, 0x80 and 0xff, read two bits at a time from data
// — a byte whose bit is clear is the same in every code, so some
// positions vary and others do not, and ties are common. The records
// reach the sort in a shuffled partition order.
func FuzzSortedEntries(f *testing.F) {
	data := []byte("\x9b\x2f\xe4\x01\x77\xc3\x5d\x88\x10\xfa\x36\x6c\xd1\x4e\xb2\x09")
	f.Add([]byte{40, 0, 33, 32, 100}, uint16(0x0001), false, data) // one pass, in Lo
	f.Add([]byte{33, 200, 1, 0, 32}, uint16(0x8000), false, data)  // one pass, Hi's top byte
	f.Add([]byte{120, 33, 64}, uint16(0x0103), false, data)        // three passes, both words
	f.Add([]byte{250, 31, 34}, uint16(0xffff), false, data)        // every byte
	f.Add([]byte{90, 33, 0, 32}, uint16(0x0f0f), true, data)       // Compare on code ties
	f.Add([]byte{70, 2, 33}, uint16(0), true, data)                // no pass: Compare decides all
	f.Add([]byte{}, uint16(0x00ff), false, []byte{})
	alphabet := [4]uint64{0x00, 0x01, 0x80, 0xff}
	f.Fuzz(func(t *testing.T, sizes []byte, vary uint16, tied bool, data []byte) {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		r := max(len(sizes), 1)
		var partOf []int
		for p, s := range sizes {
			for range int(s) {
				partOf = append(partOf, p)
			}
		}
		var seed int64
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(partOf), func(i, j int) {
			partOf[i], partOf[j] = partOf[j], partOf[i]
		})
		bit := 0
		next2 := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			v := uint64(data[bit/8%len(data)]>>(bit%8)) & 3
			bit += 2
			return v
		}
		n := len(partOf)
		recs := make([]Rec[int, int], n)
		tieKey := make([]uint64, n)
		for i := range recs {
			var c Code
			for p := range 16 {
				b := uint64(p * 17) // a constant byte
				if vary>>p&1 != 0 {
					b = alphabet[next2()]
				}
				if p < 8 {
					c.Lo |= b << (8 * p)
				} else {
					c.Hi |= b << (8 * (p - 8))
				}
			}
			if tied {
				tieKey[i] = next2()
			}
			recs[i] = Rec[int, int]{code: c, Key: i}
		}
		rs := &runStore[int, int]{r: r, part: func(k, _ int) int { return partOf[k] }}
		if tied {
			rs.tie = func(a, b int) int { return cmp.Compare(tieKey[a], tieKey[b]) }
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			if c := cmp.Compare(partOf[a], partOf[b]); c != 0 {
				return c
			}
			if c := recs[a].code.Cmp(recs[b].code); c != 0 {
				return c
			}
			return cmp.Compare(tieKey[a], tieKey[b])
		})
		entries, err := rs.sortedEntries(recs)
		if err != nil {
			t.Fatal(err)
		}
		defer putScratch(&sortEntryPool, entries)
		if len(entries) != n {
			t.Fatalf("%d entries for %d records", len(entries), n)
		}
		for k, e := range entries {
			if i := want[k]; int(e.idx) != i || int(e.part) != partOf[i] || e.code != recs[i].code {
				t.Fatalf("entry %d is record %d (partition %d, code %x), want record %d (partition %d, code %x)",
					k, e.idx, e.part, e.code, i, partOf[i], recs[i].code)
			}
		}
	})
}

// TestEngineSortParallelismDifferential runs a sort-heavy job (two
// reduce partitions, so every bucket sort is large and tie-dense) at
// parallelism 1/2/4, in memory and with a spill budget, and requires
// byte-identical Results: concurrent map tasks sharing the pooled sort
// scratch change nothing observable.
func TestEngineSortParallelismDifferential(t *testing.T) {
	input := sortHeavyInput(4, 6000)
	scrub := func(res *Result[string, string]) {
		for _, ms := range [][]TaskMetrics{res.MapMetrics, res.ReduceMetrics} {
			for i := range ms {
				ms[i].SpillRuns = 0
				ms[i].SpillBytesWritten = 0
				ms[i].SpillBytesRead = 0
			}
		}
	}
	var want *Result[string, string]
	for _, par := range []int{1, 2, 4} {
		for _, budget := range []int64{0, 1 << 16} {
			e := &Engine{Parallelism: par, SpillBudget: budget, TmpDir: t.TempDir()}
			res, err := sortHeavyJob().RunContext(context.Background(), e, input)
			if err != nil {
				t.Fatalf("parallelism=%d budget=%d: %v", par, budget, err)
			}
			scrub(res)
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(want, res) {
				t.Fatalf("parallelism=%d budget=%d: Result diverges from parallelism=1 in-memory baseline", par, budget)
			}
		}
	}
}

// sortHeavyJob shuffles everything into two partitions with heavily
// duplicated keys so per-bucket sorts are large and tie-dense.
func sortHeavyJob() *Job[string, string, string, string] {
	return &Job[string, string, string, string]{
		Name:           "sort-heavy",
		NumReduceTasks: 2,
		NewMapper: func() Mapper[string, string, string] {
			return &MapperFunc[string, string, string]{
				OnMap: func(ctx *MapContext[string, string, string], rec string) {
					// Key = first 2 bytes: few distinct keys, many ties.
					ctx.Emit(rec[:2], rec)
				},
			}
		},
		NewReducer: func() Reducer[string, string, string] {
			return &ReducerFunc[string, string, string]{
				OnReduce: func(ctx *ReduceContext[string], key string, values []Rec[string, string]) {
					ctx.Emit(key + ":" + strconv.Itoa(len(values)) + ":" + values[0].Value + ":" + values[len(values)-1].Value)
				},
			}
		},
		Partition: func(key string, r int) int { return int(key[0]) % r },
		Compare: func(a, b string) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		},
	}
}

func sortHeavyInput(parts, perPart int) [][]string {
	rng := rand.New(rand.NewSource(99))
	input := make([][]string, parts)
	for p := range input {
		recs := make([]string, perPart)
		for i := range recs {
			recs[i] = string(rune('a'+rng.Intn(4))) + string(rune('a'+rng.Intn(3))) + "-" + strconv.Itoa(p) + "-" + strconv.Itoa(i)
		}
		input[p] = recs
	}
	return input
}

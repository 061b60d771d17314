package bdm

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Annotated is a row annotated with its block id: the input record of
// Job 2. Annotate numbers every key once and counts the ids into the
// matrix, and the matching job reads the same records — Algorithm 3's
// "additionalOutput" without a second copy of the input.
type Annotated = mapreduce.Pair[int32, entity.Row]

// JobResult records Algorithm 3's count in the shape of a job result:
// JobName "bdm", and MapOutputRecords the matrix's non-zero cells, the
// records footnote 2's combiner emits. The count runs where the keys
// are numbered, so it records no task, attempt or spill.
type JobResult struct{ mapreduce.Metrics }

// CountResult returns the JobResult of the count x was assembled from.
func CountResult(x *Matrix) *JobResult {
	var cells int64
	for _, row := range x.sizes {
		for _, n := range row {
			if n > 0 {
				cells++
			}
		}
	}
	return &JobResult{mapreduce.Metrics{JobName: "bdm", MapOutputRecords: cells}}
}

// JobOptions configures ComputeContext.
type JobOptions struct {
	// Attr is the entity attribute the blocking key is derived from.
	Attr string
	// KeyFunc derives the blocking key from the attribute value.
	KeyFunc blocking.KeyFunc
	// NumReduceTasks and UseCombiner configured the BDM job, which the
	// count in Annotate replaced. They are ignored, and retire with
	// ComputeContext (ROADMAP item 27).
	NumReduceTasks int
	UseCombiner    bool
}

// Annotate turns every entity of parts into a row of its ID and attr's
// text, keyed by the id of its blocking key keyFunc(text), in its
// partition and position: the one place a blocking key is computed and
// the last place an Entity is read. Block ids are the ranks of the keys
// in keys, the sorted distinct keys, which is the matrix's block order:
// the table is the only place the key strings survive, and it is a copy
// of them. As the rows are ranked, each is counted into its partition's
// column: counts[k*len(parts)+p] is block k's rows in partition p, the
// cells FromCounts assembles the matrix from. That is Algorithm 3's
// count with footnote 2's per-partition aggregation, Job 1 of the
// pipeline; the matching job routes the rows by id and matches their
// texts. The rows alias the entities' strings but not their attribute
// slices, so once it returns nothing of the result holds parts.
func Annotate(parts entity.Partitions, attr string, keyFunc blocking.KeyFunc) (input [][]Annotated, keys []string, counts []int) {
	var t numbering
	input = make([][]Annotated, len(parts))
	for i, p := range parts {
		input[i] = make([]Annotated, len(p))
		for j, e := range p {
			text := e.Attr(attr)
			input[i][j] = Annotated{Key: t.id(keyFunc(text)), Value: entity.Row{ID: e.ID, Text: text}}
		}
	}
	rank, keys := t.sorted()
	m := len(parts)
	counts = make([]int, len(keys)*m)
	for p, rows := range input {
		for j := range rows {
			id := rank[rows[j].Key]
			rows[j].Key = id
			counts[int(id)*m+p]++
		}
	}
	return input, keys, counts
}

// numbering gives blocking keys ids in first-seen order. Keys are found
// by open addressing on their 16-byte prefix code and length, which are
// in registers where a string hash or compare would walk memory: two
// keys with equal codes and lengths are equal up to 16 bytes, so only
// longer keys compare their tails.
type numbering struct {
	slots []int32 // id + 1, 0 = free; a power of two, at most half full
	codes []mapreduce.Code
	keys  []string
}

// id returns key's id, giving it the next one if it is new. A table half
// full is rebuilt at twice the size first. (Fibonacci hashing: the
// product's top bits depend on every bit of the mixed word.)
func (t *numbering) id(key string) int32 {
	if 2*len(t.keys) >= len(t.slots) {
		keys := t.keys
		t.slots, t.codes, t.keys = make([]int32, max(2*len(t.slots), 64)), t.codes[:0], keys[:0]
		for _, k := range keys {
			t.id(k)
		}
	}
	c := mapreduce.StringPrefixCode(key)
	mask := len(t.slots) - 1
	w := c.Hi ^ bits.RotateLeft64(c.Lo, 29) ^ uint64(len(key))
	for h := int(w * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask))); ; h = (h + 1) & mask {
		switch i := t.slots[h] - 1; {
		case i < 0:
			t.codes, t.keys = append(t.codes, c), append(t.keys, key)
			t.slots[h] = int32(len(t.keys))
			return t.slots[h] - 1
		case t.codes[i] == c && len(t.keys[i]) == len(key) && (len(key) <= 16 || t.keys[i][16:] == key[16:]):
			return i
		}
	}
}

// sorted returns each id's rank among the keys and the keys in rank
// order, copied into one string.
func (t *numbering) sorted() (rank []int32, keys []string) {
	order := make([]int32, len(t.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := t.codes[a].Cmp(t.codes[b]); c != 0 {
			return c
		}
		return strings.Compare(t.keys[a], t.keys[b])
	})
	rank, keys = make([]int32, len(order)), make([]string, len(order))
	for r, id := range order {
		rank[id], keys[r] = int32(r), t.keys[id]
	}
	all := strings.Join(keys, "")
	for r, k := range keys {
		keys[r], all = all[:len(k)], all[len(k):]
	}
	return rank, keys
}

// ComputeContext runs Algorithm 3 over the partitioned input: it
// annotates and counts parts once (Annotate) and assembles the Matrix.
// It returns the matrix, the annotated partitions (the matching job's
// input) and the count's JobResult. It runs nothing on eng, and ctx
// and opts.NumReduceTasks and UseCombiner are not used; it stays for
// the benchmark's staged run until ROADMAP item 27 retires it.
func ComputeContext(_ context.Context, _ *mapreduce.Engine, parts entity.Partitions, opts JobOptions) (*Matrix, [][]Annotated, *JobResult, error) {
	if opts.KeyFunc == nil {
		return nil, nil, nil, fmt.Errorf("bdm: compute: JobOptions.KeyFunc is required")
	}
	input, keys, counts := Annotate(parts, opts.Attr, opts.KeyFunc)
	x, err := FromCounts(keys, len(input), counts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bdm: compute: %w", err)
	}
	return x, input, CountResult(x), nil
}

// FromPartitions builds the Matrix directly from the entities. The
// analytic planners and the data-generation tooling use it, and tests
// hold Annotate's count to it, so it counts independently of Annotate:
// one row of counts per key in a map, the keys sorted once and the rows
// handed to FromCounts in their order.
func FromPartitions(parts entity.Partitions, attr string, keyFunc blocking.KeyFunc) (*Matrix, error) {
	rows := make(map[string][]int) // key -> count per partition
	for p, part := range parts {
		for _, e := range part {
			key := keyFunc(e.Attr(attr))
			if rows[key] == nil {
				rows[key] = make([]int, len(parts))
			}
			rows[key][p]++
		}
	}
	keys := slices.AppendSeq(make([]string, 0, len(rows)), maps.Keys(rows))
	slices.Sort(keys)
	counts := make([]int, 0, len(keys)*len(parts))
	for _, key := range keys {
		counts = append(counts, rows[key]...)
	}
	return FromCounts(keys, len(parts), counts)
}

// Distributed execution moves Job 2's input across process boundaries:
// register the codec of its records. Its element codecs exist by now:
// int32 is a runio builtin, entity.Row is registered by the entity
// package's init.
func init() { mapreduce.RegisterPairCodec[int32, entity.Row]() }

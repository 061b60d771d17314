package bdm

import (
	"cmp"
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

// Key is the composite map-output key of Algorithm 3:
// blockIndex.partitionIndex.
type Key struct {
	Block     int32
	Partition int32
}

func (k Key) String() string { return fmt.Sprintf("%d.%d", k.Block, k.Partition) }

// compareKeys sorts by block, then partition index.
func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Partition, b.Partition))
}

// keyCoding is the BDM key's exact code: block ‖ partition in the high
// word, each with its sign bit flipped so that the whole int32 range
// orders as unsigned. Grouping is on the whole key, the high word.
var keyCoding = mapreduce.KeyCoding[Key]{
	Encode: func(k Key) mapreduce.Code {
		return mapreduce.Code{Hi: uint64(uint32(k.Block)^1<<31)<<32 | uint64(uint32(k.Partition)^1<<31)}
	},
	Exact:     true,
	GroupBits: 64,
}

// Annotated is a row annotated with its block id: the input record of
// Job 2. Annotate numbers every key once, the BDM job counts the ids,
// and the matching job reads the same records — Algorithm 3's
// "additionalOutput" without a second copy of the input.
type Annotated = mapreduce.Pair[int32, entity.Row]

// CountRecord is one reduce output of the BDM job: a (block, partition)
// key with its entity count — a matrix cell in record form.
type CountRecord = mapreduce.Pair[Key, int]

// JobResult is the result type of an executed BDM job, whose input is
// the block-id column of the annotated rows (BlockIDs).
type JobResult = mapreduce.Result[int32, CountRecord]

// JobOptions configures the BDM computation job.
type JobOptions struct {
	// Attr is the entity attribute the blocking key is derived from.
	Attr string
	// KeyFunc derives the blocking key from the attribute value.
	// ComputeContext annotates with Attr and KeyFunc; Job reads the keys
	// from its input records.
	KeyFunc blocking.KeyFunc
	// NumReduceTasks is r for the BDM job.
	NumReduceTasks int
	// UseCombiner enables the optimization the paper suggests in
	// footnote 2 — aggregate the frequencies per map task: the mapper
	// counts its partition's entities per block and emits one record per
	// non-zero matrix cell at end of input, instead of a 1 per entity.
	UseCombiner bool
}

// Job returns the MapReduce job of Algorithm 3 over the block-id column
// of annotated input (BlockIDs): the map function counts each record's
// block id and emits (blockIndex.partitionIndex, 1) — or, with
// UseCombiner, one (blockIndex.partitionIndex, n) per block. Attr and
// KeyFunc are not used here. Partitioning is by block only (Hadoop's
// hash partitioner on an int key, block % r), so all cells of one block
// are produced by the same reduce task; sort and group use the entire
// composite key.
func Job(opts JobOptions) *mapreduce.Job[int32, Key, int, CountRecord] {
	if opts.NumReduceTasks <= 0 {
		panic("bdm: JobOptions.NumReduceTasks must be > 0")
	}
	return &mapreduce.Job[int32, Key, int, CountRecord]{
		Name:           "bdm",
		NumReduceTasks: opts.NumReduceTasks,
		NewMapper: func() mapreduce.Mapper[int32, Key, int] {
			return &bdmMapper{aggregate: opts.UseCombiner}
		},
		NewReducer: func() mapreduce.Reducer[Key, int, CountRecord] {
			return &mapreduce.ReducerFunc[Key, int, CountRecord]{OnReduce: sumCell}
		},
		Partition: func(key Key, r int) int { return int(key.Block) % r },
		Compare:   compareKeys,
		// Group on the entire key: one reduce call per (block, partition).
		Group:  compareKeys,
		Coding: keyCoding,
	}
}

// bdmMapper counts one partition's block ids. Aggregating, it is the
// per-task count of footnote 2: counts is the task's column of the
// matrix, indexed by block id, and Close emits its non-zero cells in id
// order.
type bdmMapper struct {
	partition int32
	aggregate bool
	counts    []int
}

func (m *bdmMapper) Configure(_, _, partitionIndex int) { m.partition = int32(partitionIndex) }

func (m *bdmMapper) Map(ctx *mapreduce.MapContext[int32, Key, int], id int32) {
	if !m.aggregate {
		ctx.Emit(Key{Block: id, Partition: m.partition}, 1)
		return
	}
	if n := int(id) + 1; n > len(m.counts) {
		m.counts = slices.Grow(m.counts, n-len(m.counts))[:n] // past len, never written: zero
	}
	m.counts[id]++
}

// Close implements mapreduce.MapCloser: one record per non-zero cell of
// the task's matrix column.
func (m *bdmMapper) Close(ctx *mapreduce.MapContext[int32, Key, int]) {
	for id, n := range m.counts {
		if n > 0 {
			ctx.Emit(Key{Block: int32(id), Partition: m.partition}, n)
		}
	}
}

// sumCell sums the 1s (or per-task counts) of one (block, partition)
// group and emits a cell record.
func sumCell(ctx *mapreduce.ReduceContext[CountRecord], key Key, values []mapreduce.Rec[Key, int]) {
	sum := 0
	for _, v := range values {
		sum += v.Value
	}
	ctx.Emit(CountRecord{Key: key, Value: sum})
}

// Annotate turns every entity of parts into a row of its ID and attr's
// text, keyed by the id of its blocking key keyFunc(text), in its
// partition and position: the one place a blocking key is computed and
// the last place an Entity is read. Block ids are the ranks of the keys
// in keys, the sorted distinct keys, which is the matrix's block order:
// the table is the only place the key strings survive, and it is a copy
// of them. Both jobs read the rows — the BDM job counts the ids, the
// matching job routes by them and matches the texts. The rows alias the
// entities' strings but not their attribute slices, so once it returns
// nothing of the result holds parts.
func Annotate(parts entity.Partitions, attr string, keyFunc blocking.KeyFunc) (input [][]Annotated, keys []string) {
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
	for _, p := range input {
		for j := range p {
			p[j].Key = rank[p[j].Key]
		}
	}
	return input, keys
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

// BlockIDs returns the block-id column of annotated input: the BDM job's
// input, which a dispatched map task ships as varints instead of rows.
func BlockIDs(input [][]Annotated) [][]int32 {
	ids := make([][]int32, len(input))
	for p, rows := range input {
		ids[p] = make([]int32, len(rows))
		for i := range rows {
			ids[p][i] = rows[i].Key
		}
	}
	return ids
}

// ComputeContext runs Algorithm 3 over the partitioned input: it
// annotates parts once (Annotate) and counts the annotated partitions
// (Count). It returns the assembled Matrix, the annotated partitions the
// job counted (the matching job's input, in the job's partitioning) and
// the job's result. A pipeline annotates and counts in two steps
// instead, so that nothing holds parts while Job 1 runs.
func ComputeContext(ctx context.Context, eng *mapreduce.Engine, parts entity.Partitions, opts JobOptions) (*Matrix, [][]Annotated, *JobResult, error) {
	if opts.KeyFunc == nil {
		return nil, nil, nil, fmt.Errorf("bdm: compute: JobOptions.KeyFunc is required")
	}
	input, keys := Annotate(parts, opts.Attr, opts.KeyFunc)
	matrix, res, err := Count(ctx, eng, input, keys, opts)
	return matrix, input, res, err
}

// Count runs the BDM job over the block ids of annotated input and
// assembles the Matrix of keys, Annotate's key table, from its output,
// one column per partition of input. opts.Attr and opts.KeyFunc are not
// used. Cancellation follows the engine's between-task semantics.
func Count(ctx context.Context, eng *mapreduce.Engine, input [][]Annotated, keys []string, opts JobOptions) (*Matrix, *JobResult, error) {
	if opts.NumReduceTasks < 1 {
		return nil, nil, fmt.Errorf("bdm: compute: JobOptions.NumReduceTasks must be at least 1, got %d", opts.NumReduceTasks)
	}
	res, err := Job(opts).RunContext(ctx, eng, BlockIDs(input))
	if err != nil {
		return nil, nil, fmt.Errorf("bdm: compute: %w", err)
	}
	matrix, err := FromCounts(keys, len(input), res.Output)
	if err != nil {
		return nil, nil, fmt.Errorf("bdm: compute: assemble matrix: %w", err)
	}
	return matrix, res, nil
}

// FromPartitions builds the Matrix directly in memory, without running
// the MR job. The analytic planners and the data-generation tooling use
// it; tests assert it agrees exactly with the MR computation, so it
// counts independently of Annotate: one row of counts per key in a map,
// the keys sorted once and handed to FromCounts as their ranks.
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
	var counts []CountRecord
	for k, key := range keys {
		for p, n := range rows[key] {
			if n > 0 {
				counts = append(counts, CountRecord{Key: Key{Block: int32(k), Partition: int32(p)}, Value: n})
			}
		}
	}
	return FromCounts(keys, len(parts), counts)
}

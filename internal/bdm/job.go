package bdm

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Key is the composite map-output key of Algorithm 3:
// blockingKey.partitionIndex.
type Key struct {
	BlockKey  string
	Partition int
}

func (k Key) String() string { return fmt.Sprintf("%s.%d", k.BlockKey, k.Partition) }

// compareKeys sorts by blocking key, then partition index.
func compareKeys(a, b Key) int {
	if c := strings.Compare(a.BlockKey, b.BlockKey); c != 0 {
		return c
	}
	return cmp.Compare(a.Partition, b.Partition)
}

// keyCoding is the BDM key's binary code: a 16-byte prefix of the
// blocking key. Unequal prefixes decide the order; equal prefixes fall
// back to the full (BlockKey, Partition) comparator, so the coding is
// neither exact nor group-deciding.
var keyCoding = mapreduce.KeyCoding[Key]{
	Encode: func(k Key) mapreduce.Code { return mapreduce.StringPrefixCode(k.BlockKey) },
}

// Annotated is a blocking-key-annotated row: the input record of both
// jobs. Annotate computes every key once, the BDM job counts them, and
// the matching job reads the same records — Algorithm 3's
// "additionalOutput" without a second copy of the input.
type Annotated = mapreduce.Pair[string, entity.Row]

// CountRecord is one reduce output of the BDM job: a (block, partition)
// key with its entity count — a matrix cell in record form.
type CountRecord = mapreduce.Pair[Key, int]

// JobResult is the result type of an executed BDM job.
type JobResult = mapreduce.Result[Annotated, CountRecord]

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

// Job returns the MapReduce job of Algorithm 3 over annotated input
// (Annotate): the map function counts each record's blocking key and
// emits (blockingKey.partitionIndex, 1) — or, with UseCombiner, one
// (blockingKey.partitionIndex, n) per block. The key is read from the
// record, so Attr and KeyFunc are not used here. Partitioning is by
// blocking key only so all cells of one block are produced by the same
// reduce task; sort and group use the entire composite key.
func Job(opts JobOptions) *mapreduce.Job[Annotated, Key, int, CountRecord] {
	if opts.NumReduceTasks <= 0 {
		panic("bdm: JobOptions.NumReduceTasks must be > 0")
	}
	return &mapreduce.Job[Annotated, Key, int, CountRecord]{
		Name:           "bdm",
		NumReduceTasks: opts.NumReduceTasks,
		NewMapper: func() mapreduce.Mapper[Annotated, Key, int] {
			return &bdmMapper{aggregate: opts.UseCombiner}
		},
		NewReducer: func() mapreduce.Reducer[Key, int, CountRecord] {
			return &countReducer{}
		},
		Partition: func(key Key, r int) int {
			return mapreduce.HashPartition(key.BlockKey, r)
		},
		Compare: compareKeys,
		// Group on the entire key: one reduce call per (block, partition).
		Group:  compareKeys,
		Coding: keyCoding,
	}
}

type bdmMapper struct {
	partition int
	aggregate bool
	cells     countTable
}

// countTable is the per-task count table of footnote 2: one cell per
// distinct block of the partition — one column of the matrix the planner
// holds whole anyway — in first-seen order, so that Close emits
// deterministically. Cells are found by open addressing from a hash of
// the first word of the block key's prefix code: blocking keys are short,
// so the word usually is the key, and it is in a register where a string
// hash would walk memory.
type countTable struct {
	slots []int32 // cell index + 1, 0 = free; a power of two, at most half full
	cells []Cell  // Partition is left to Close
}

// find returns the slot that names block's cell, or the free slot where
// the probe for it ends. (Fibonacci hashing: the product's top bits
// depend on every bit of the word.)
func (t *countTable) find(block string) *int32 {
	mask := len(t.slots) - 1
	h := int(mapreduce.StringPrefixCode(block).Hi * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
	for ; ; h = (h + 1) & mask {
		if i := t.slots[h]; i == 0 || t.cells[i-1].BlockKey == block {
			return &t.slots[h]
		}
	}
}

// add counts one entity of block. A table half full is doubled first,
// the room for cells with it, so that the append below never reallocates.
func (t *countTable) add(block string) {
	if 2*len(t.cells) >= len(t.slots) {
		t.slots = make([]int32, max(2*len(t.slots), 64))
		t.cells = append(make([]Cell, 0, len(t.slots)/2), t.cells...)
		for i, c := range t.cells {
			*t.find(c.BlockKey) = int32(i + 1)
		}
	}
	slot := t.find(block)
	if *slot == 0 {
		t.cells = append(t.cells, Cell{BlockKey: block})
		*slot = int32(len(t.cells))
	}
	t.cells[*slot-1].Count++
}

func (m *bdmMapper) Configure(_, _, partitionIndex int) { m.partition = partitionIndex }

func (m *bdmMapper) Map(ctx *mapreduce.MapContext[Annotated, Key, int], rec Annotated) {
	if m.aggregate {
		m.cells.add(rec.Key)
	} else {
		ctx.Emit(Key{BlockKey: rec.Key, Partition: m.partition}, 1)
	}
}

// Close implements mapreduce.MapCloser: one record per non-zero cell of
// the task's matrix column.
func (m *bdmMapper) Close(ctx *mapreduce.MapContext[Annotated, Key, int]) {
	for _, c := range m.cells.cells {
		ctx.Emit(Key{BlockKey: c.BlockKey, Partition: m.partition}, c.Count)
	}
}

// countReducer sums the 1s (or per-task counts) for one
// (block, partition) group and emits a cell record.
type countReducer struct {
	block string // the current block's key, cloned once
}

func (c *countReducer) Configure(_, _, _ int) {}

func (c *countReducer) Reduce(ctx *mapreduce.ReduceContext[CountRecord], key Key, values []mapreduce.Rec[Key, int]) {
	sum := 0
	for _, v := range values {
		sum += v.Value
	}
	// The emitted record outlives the reduce call; clone the block key,
	// which on the arena read path aliases a decode block
	// (copy-what-you-retain). The cells of a block reach a reduce task
	// consecutively, so one clone serves them all.
	if key.BlockKey != c.block {
		c.block = strings.Clone(key.BlockKey)
	}
	key.BlockKey = c.block
	ctx.Emit(CountRecord{Key: key, Value: sum})
}

// Annotate turns every entity of parts into a row of its ID and attr's
// text, keyed by the blocking key keyFunc(text), in its partition and
// position: the one place a blocking key is computed and the last place
// an Entity is read. Both jobs read what it returns — the BDM job counts
// the keys, the matching job routes by them and matches the texts. The
// rows alias the entities' strings but not their attribute slices, so
// once it returns nothing of the result holds parts.
func Annotate(parts entity.Partitions, attr string, keyFunc blocking.KeyFunc) [][]Annotated {
	input := make([][]Annotated, len(parts))
	for i, p := range parts {
		input[i] = make([]Annotated, len(p))
		for j, e := range p {
			text := e.Attr(attr)
			input[i][j] = Annotated{Key: keyFunc(text), Value: entity.Row{ID: e.ID, Text: text}}
		}
	}
	return input
}

// ComputeContext runs Algorithm 3 over the partitioned input: it
// annotates parts once (Annotate), runs the BDM job over the annotated
// partitions, and returns the assembled Matrix, the annotated partitions
// the job counted (the matching job's input, in the job's partitioning)
// and the job's result. Cancellation follows the engine's between-task
// semantics.
func ComputeContext(ctx context.Context, eng *mapreduce.Engine, parts entity.Partitions, opts JobOptions) (*Matrix, [][]Annotated, *JobResult, error) {
	switch {
	case opts.KeyFunc == nil:
		return nil, nil, nil, fmt.Errorf("bdm: compute: JobOptions.KeyFunc is required")
	case opts.NumReduceTasks < 1:
		return nil, nil, nil, fmt.Errorf("bdm: compute: JobOptions.NumReduceTasks must be at least 1, got %d", opts.NumReduceTasks)
	}
	input := Annotate(parts, opts.Attr, opts.KeyFunc)
	res, err := Job(opts).RunContext(ctx, eng, input)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bdm: compute: %w", err)
	}
	matrix, err := fromCells(len(res.Output), func(i int) Cell {
		rec := &res.Output[i]
		return Cell{BlockKey: rec.Key.BlockKey, Partition: rec.Key.Partition, Count: rec.Value}
	}, len(parts))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bdm: compute: assemble matrix: %w", err)
	}
	return matrix, input, res, nil
}

// FromPartitions builds the Matrix directly in memory, without running
// the MR job. The analytic planners and the data-generation tooling use
// it; tests assert it agrees exactly with the MR computation.
func FromPartitions(parts entity.Partitions, attr string, keyFunc blocking.KeyFunc) (*Matrix, error) {
	var cells []Cell
	counts := make(map[Key]int)
	for p, part := range parts {
		for _, e := range part {
			counts[Key{BlockKey: keyFunc(e.Attr(attr)), Partition: p}]++
		}
	}
	for k, n := range counts {
		cells = append(cells, Cell{BlockKey: k.BlockKey, Partition: k.Partition, Count: n})
	}
	return FromCells(cells, len(parts))
}

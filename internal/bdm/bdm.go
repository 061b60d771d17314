// Package bdm implements the Block Distribution Matrix (BDM) of
// Section III-B: a b×m matrix giving the number of entities of each of
// the b blocks in each of the m input partitions. Both load-balancing
// strategies read the BDM during map-task initialization of the second
// MR job to compute their routing decisions.
//
// The package provides the matrix type itself, a direct in-memory
// builder, and the one blocking-key annotation of the input (Annotate),
// which numbers the blocks and counts the annotated entities into the
// matrix, Algorithm 3's count; Job 2 reads the same annotated entities.
package bdm

import (
	"fmt"
	"slices"
	"strings"
)

// Source identifies one of the two input sources in the two-source
// matching extension of Appendix I.
type Source int

// The two sources, named as in the paper.
const (
	SourceR Source = 0
	SourceS Source = 1
)

func (s Source) String() string {
	if s == SourceR {
		return "R"
	}
	return "S"
}

// Matrix is the block distribution matrix. Blocks are indexed 0..b-1 in
// lexicographic order of their blocking key (the paper permits any fixed
// order agreed on by all map tasks): the block ids Annotate gives the
// rows.
//
// A matrix of two sources R and S (Appendix I; see WithSources) also
// records which source each partition holds. It is the one place the
// number of sources is decided: which partitions' entities are compared
// with each other (Compares), a block's pairs (BlockPairs), and how
// entities are counted (EntityOffset, SourceSize). Untagged, every
// partition holds R.
//
// A matrix with missing keys (Section III; see WithMissingKeys) turns
// the block of the empty key into the ⊥ row, which compares its
// keyless entities with each other and with every keyed entity.
type Matrix struct {
	keys    []string // block index -> blocking key, ascending
	sizes   [][]int  // [block][partition] -> #entities
	m       int      // number of partitions
	total   []int    // [block] -> Σ over partitions
	sources []Source // partition -> source; nil = one source
	totalS  []int    // [block] -> Σ over S partitions; nil = one source
	keyed   []int    // partition -> #entities with a key; nil = no ⊥ row
	nKeyed  int      // Σ keyed
	offsets []int64  // [block] -> Σ pairs of preceding blocks (o(i))
	pairs   int64    // total number of pairs P
}

// WithSources returns the matrix with partition p tagged as holding
// source sources[p] — the two-source BDM of Appendix I, in which only
// pairs of entities from different sources count. The receiver is not
// modified.
func (x *Matrix) WithSources(sources []Source) (*Matrix, error) {
	if x.keyed != nil {
		return nil, fmt.Errorf("bdm: a matrix with a ⊥ row takes no source tags")
	}
	if len(sources) != x.m {
		return nil, fmt.Errorf("bdm: %d partitions but %d source tags", x.m, len(sources))
	}
	y := *x
	y.sources = slices.Clone(sources)
	y.totalS = make([]int, len(x.keys))
	for p, s := range sources {
		if s != SourceR && s != SourceS {
			return nil, fmt.Errorf("bdm: partition %d has invalid source %d", p, s)
		}
		if s == SourceS {
			for k := range x.keys {
				y.totalS[k] += x.sizes[k][p]
			}
		}
	}
	y.finalize()
	return &y, nil
}

// WithMissingKeys returns the matrix with the block of the empty key as
// the ⊥ row of Section III: the entities without a blocking key, n⊥ of
// them, are compared with each other and with all nK keyed entities.
// The row holds every entity, the keyless ones first, and its pairs are
// the first n⊥ columns of its triangle, C(n⊥,2) + n⊥·nK. The empty key
// sorts first, so the ⊥ row is block 0. Without keyless entities there
// is no ⊥ row and the matrix is returned as it is. The receiver is not
// modified.
func (x *Matrix) WithMissingKeys() (*Matrix, error) {
	if x.sources != nil {
		return nil, fmt.Errorf("bdm: a matrix with source tags takes no ⊥ row")
	}
	y := *x
	if len(x.keys) == 0 || x.keys[0] != "" || x.total[0] == 0 {
		return &y, nil
	}
	y.keyed = make([]int, x.m)
	for _, row := range x.sizes[1:] {
		for p, n := range row {
			y.keyed[p] += n
			y.nKeyed += n
		}
	}
	y.finalize()
	return &y, nil
}

// MissingKeys reports whether block 0 is a ⊥ row.
func (x *Matrix) MissingKeys() bool { return x.keyed != nil }

// KeyedIn returns the entities of partition p that have a blocking key:
// the ⊥ row's keyed entities there. Only a matrix with a ⊥ row has them.
func (x *Matrix) KeyedIn(p int) int { return x.keyed[p] }

// TwoSources reports whether the matrix's partitions carry source tags.
func (x *Matrix) TwoSources() bool { return x.sources != nil }

// PartitionSource returns the source partition p holds.
func (x *Matrix) PartitionSource(p int) Source {
	if x.sources == nil {
		return SourceR
	}
	return x.sources[p]
}

// Compares reports whether entities of partitions p and q are compared
// with each other: always for one source, across sources only for two.
func (x *Matrix) Compares(p, q int) bool {
	return x.sources == nil || x.sources[p] != x.sources[q]
}

// NumBlocks returns b, the number of distinct blocks.
func (x *Matrix) NumBlocks() int { return len(x.keys) }

// NumPartitions returns m, the number of input partitions.
func (x *Matrix) NumPartitions() int { return x.m }

// BlockKey returns the blocking key of block k.
func (x *Matrix) BlockKey(k int) string { return x.keys[k] }

// Size returns the number of entities block k compares: those of its
// key, and in a ⊥ row every keyed entity as well.
func (x *Matrix) Size(k int) int {
	if k == 0 && x.keyed != nil {
		return x.total[0] + x.nKeyed
	}
	return x.total[k]
}

// SizeIn returns the number of entities of block k in partition p — in
// a ⊥ row, its keyless ones.
func (x *Matrix) SizeIn(k, p int) int { return x.sizes[k][p] }

// SourceSize returns |Φk,src|, the entities of block k in src's
// partitions — in a ⊥ row, n⊥ of them.
func (x *Matrix) SourceSize(k int, src Source) int {
	s := 0
	if x.totalS != nil {
		s = x.totalS[k]
	}
	if src == SourceS {
		return s
	}
	return x.total[k] - s
}

// BlockPairs returns the number of entity pairs block k compares:
// |Φk|·(|Φk|−1)/2 for one source, |Φk,R|·|Φk,S| for two, and
// C(n⊥,2) + n⊥·nK for a ⊥ row.
func (x *Matrix) BlockPairs(k int) int64 {
	if x.sources != nil {
		return int64(x.SourceSize(k, SourceR)) * int64(x.totalS[k])
	}
	n := int64(x.total[k])
	if k == 0 && x.keyed != nil {
		return n*(n-1)/2 + n*int64(x.nKeyed)
	}
	return n * (n - 1) / 2
}

// Pairs returns P, the total number of pairs over all blocks.
func (x *Matrix) Pairs() int64 { return x.pairs }

// PairOffset returns o(k): the total number of pairs in blocks 0..k-1,
// i.e. the global pair index at which block k's pairs begin.
func (x *Matrix) PairOffset(k int) int64 { return x.offsets[k] }

// TotalEntities returns the number of entities across all blocks.
func (x *Matrix) TotalEntities() int {
	n := 0
	for _, t := range x.total {
		n += t
	}
	return n
}

// EntityOffset returns the number of entities of block k in the
// partitions before p that hold p's source — the base entity index
// assigned to block-k entities of partition p by the PairRange
// enumeration (Section V).
func (x *Matrix) EntityOffset(k, p int) int {
	off := 0
	for i := 0; i < p; i++ {
		if x.PartitionSource(i) == x.PartitionSource(p) {
			off += x.sizes[k][i]
		}
	}
	return off
}

// LargestBlock returns the index and size of the largest block; -1 when
// the matrix is empty.
func (x *Matrix) LargestBlock() (k, size int) {
	k = -1
	for i, t := range x.total {
		if t > size {
			k, size = i, t
		}
	}
	return k, size
}

// FromCounts is the one matrix assembler: the matrix of m partitions
// whose blocks are keys, sorted, and whose cells are counts, block by
// block: counts[k*m+p] entities of block k in partition p. The rows
// are carved out of counts, which the matrix keeps. No count may be
// negative.
func FromCounts(keys []string, m int, counts []int) (*Matrix, error) {
	switch {
	case m <= 0:
		return nil, fmt.Errorf("bdm: a matrix needs m > 0, got %d", m)
	case len(counts) != len(keys)*m:
		return nil, fmt.Errorf("bdm: %d counts for %d blocks × %d partitions", len(counts), len(keys), m)
	}
	x := &Matrix{keys: keys, sizes: make([][]int, len(keys)), m: m, total: make([]int, len(keys))}
	for k := range keys {
		x.sizes[k] = counts[k*m : (k+1)*m : (k+1)*m]
		for p, n := range x.sizes[k] {
			if n < 0 {
				return nil, fmt.Errorf("bdm: block %q partition %d has count %d", keys[k], p, n)
			}
			x.total[k] += n
		}
	}
	x.finalize()
	return x, nil
}

func (x *Matrix) finalize() {
	x.offsets = make([]int64, len(x.keys)+1)
	for k := range x.keys {
		x.offsets[k+1] = x.offsets[k] + x.BlockPairs(k)
	}
	x.pairs = x.offsets[len(x.keys)]
	x.offsets = x.offsets[:len(x.keys)]
	if len(x.offsets) == 0 {
		x.offsets = []int64{}
	}
}

// String renders the matrix as a small table for logs and tests.
func (x *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "BDM %d blocks × %d partitions, P=%d pairs", len(x.keys), x.m, x.pairs)
	if x.sources != nil {
		fmt.Fprintf(&sb, ", sources %v", x.sources)
	}
	sb.WriteByte('\n')
	for k, key := range x.keys {
		fmt.Fprintf(&sb, "  Φ%-3d %-12q %v total=%d pairs=%d offset=%d\n",
			k, key, x.sizes[k], x.total[k], x.BlockPairs(k), x.offsets[k])
	}
	return sb.String()
}

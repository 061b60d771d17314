package mapreduce

import (
	"reflect"
	"sync"
)

// The map-side sort, and the sync.Pool-backed scratch buffers the typed
// task hot paths reuse. Generic pools cannot be package-level globals,
// so each run owns a recPools instance shared by its tasks (see
// runState).

// sortEntry is one buffered map-output record as the map-side sort sees
// it: the record's binary key code, its reduce partition and its index
// in the buffer. The sort moves these 24 pointer-free bytes instead of
// whole Recs (48–96 bytes holding strings the collector must trace), and
// the records themselves move once, when the sorted order is gathered.
type sortEntry struct {
	code Code
	part int32
	idx  int32
}

// sortEntryPool recycles entry buffers (and the sort's scratch) across
// tasks, runs and jobs; entries hold no pointers, so nothing is cleared.
var sortEntryPool slicePool[sortEntry]

// sortedEntries is the engine's one map-side sort: it returns the order
// in which a map task's buffered records leave it — by reduce partition,
// then by key, equal keys in emission order (the order the shuffle's
// stability guarantee is built on) — as entries the caller gathers from
// (into the tail's bucket array, or into a spilled run) and returns to
// sortEntryPool.
//
// No step touches a record unless it must. Entries are dealt into
// partition order by counting, then each partition's entries are sorted
// by code (radixSortEntries). Only when equal codes do not mean equal
// keys (a coding that is not Exact, or none: all codes zero) is each run
// of equal codes then sorted by the job's Compare, reached through idx.
// Such a run is in emission order, so its records are visited front to
// back, and when its keys are in fact all equal — every key no longer
// than a prefix code's 16 bytes — the merge sort finds it already in
// order after one pass. Both sorts are stable, so the result is the one
// permutation ordered by (partition, key, emission).
func (rs *runStore[K, V]) sortedEntries(recs []Rec[K, V]) ([]sortEntry, error) {
	n := len(recs)
	entries := getScratch(&sortEntryPool, n)
	scratch := getScratch(&sortEntryPool, n)
	ends := getInt32Buf(rs.r)
	defer putScratch(&sortEntryPool, scratch)
	defer putInt32Buf(ends)
	clear(ends)
	for i := range recs {
		p := rs.part(recs[i].Key, rs.r)
		if p < 0 || p >= rs.r {
			putScratch(&sortEntryPool, entries)
			return nil, errBadPartition(p, rs.r)
		}
		scratch[i] = sortEntry{code: recs[i].code, part: int32(p), idx: int32(i)}
		ends[p]++
	}
	// Counts become each partition's write offset, and after the deal
	// its end offset.
	var next int32
	for p, c := range ends {
		ends[p] = next
		next += c
	}
	for i := range scratch {
		p := scratch[i].part
		entries[ends[p]] = scratch[i]
		ends[p]++
	}
	var byKey func(a, b *sortEntry) int
	if tie := rs.tie; tie != nil {
		byKey = func(a, b *sortEntry) int { return tie(recs[a.idx].Key, recs[b.idx].Key) }
	}
	lo := 0
	for _, end := range ends {
		hi := int(end)
		radixSortEntries(entries[lo:hi], scratch[lo:hi])
		for byKey != nil && lo < hi {
			tied := lo + 1
			for tied < hi && entries[tied].code == entries[lo].code {
				tied++
			}
			stableSortSerialG(entries[lo:tied], scratch[lo:tied], byKey)
			lo = tied
		}
		lo = hi
	}
	return entries, nil
}

// insertionMax is the partition size up to which an insertion sort
// beats the radix sort's fixed cost (a 256-bucket count per pass).
const insertionMax = 32

// radixSortEntries sorts a by code, stably, with scratch (as long as a)
// as the other side of each pass. It is a least-significant-digit radix
// sort over the code's 16 bytes, Lo's lowest first, and it makes a
// count-and-scatter pass only for the bytes on which two entries
// differ — found by one AND/OR sweep, so a byte every code shares (most
// of a block index's high bytes, all of an absent coding) costs nothing.
// Each pass is stable (entries are scattered front to back into their
// byte's bucket), so after the last one the entries are ordered by the
// whole code and equal codes keep their order in a.
func radixSortEntries(a, scratch []sortEntry) {
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			e, j := a[i], i
			for ; j > 0 && e.code.Cmp(a[j-1].code) < 0; j-- {
				a[j] = a[j-1]
			}
			a[j] = e
		}
		return
	}
	andHi, andLo := ^uint64(0), ^uint64(0)
	var orHi, orLo uint64
	for i := range a {
		andHi, orHi = andHi&a[i].code.Hi, orHi|a[i].code.Hi
		andLo, orLo = andLo&a[i].code.Lo, orLo|a[i].code.Lo
	}
	vary := Code{Hi: orHi ^ andHi, Lo: orLo ^ andLo}
	src, dst := a, scratch[:len(a)]
	for shift := uint(0); shift < 128; shift += 8 {
		if codeByte(vary, shift) != 0 {
			radixPass(src, dst, shift)
			src, dst = dst, src
		}
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// codeByte is the byte of c at shift, counted from Lo's lowest bit.
func codeByte(c Code, shift uint) byte {
	w := c.Lo
	if shift >= 64 {
		w = c.Hi
	}
	return byte(w >> (shift % 64))
}

// radixPass scatters src into dst stably by each code's byte at shift.
func radixPass(src, dst []sortEntry, shift uint) {
	var count [256]int32
	for i := range src {
		count[codeByte(src[i].code, shift)]++
	}
	var sum int32
	for b, c := range count {
		count[b] = sum
		sum += c
	}
	for i := range src {
		b := codeByte(src[i].code, shift)
		dst[count[b]] = src[i]
		count[b]++
	}
}

// insertionRun is the run length below which the merge sort's
// insertion sort beats merging; it is also the initial width of the
// bottom-up merge.
const insertionRun = 24

// insertionSortG is a stable insertion sort (equal keys never swap).
func insertionSortG[T any](a []T, cmp func(x, y *T) int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && cmp(&a[j], &a[j-1]) < 0; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// mergeRunsG merges the two adjacent sorted runs a[:mid] and a[mid:] in
// place, taking from the left run on ties (stability). The left run is
// staged in scratch (which must hold at least mid elements); the merged
// output is written from the front of a, which can never overtake the
// unread part of the right run.
func mergeRunsG[T any](a []T, mid int, scratch []T, cmp func(x, y *T) int) {
	if cmp(&a[mid-1], &a[mid]) <= 0 {
		return // already in order
	}
	left := scratch[:mid]
	copy(left, a[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if cmp(&a[j], &left[i]) < 0 {
			a[k] = a[j]
			j++
		} else {
			a[k] = left[i]
			i++
		}
		k++
	}
	for i < mid {
		a[k] = left[i]
		i++
		k++
	}
}

// stableSortSerialG sorts a stably with the classic insertion-run +
// bottom-up merge scheme. scratch must hold at least len(a) elements.
func stableSortSerialG[T any](a, scratch []T, cmp func(x, y *T) int) {
	n := len(a)
	if n < 2 {
		return
	}
	if n <= insertionRun {
		insertionSortG(a, cmp)
		return
	}
	for lo := 0; lo < n; lo += insertionRun {
		hi := min(lo+insertionRun, n)
		insertionSortG(a[lo:hi], cmp)
	}
	for width := insertionRun; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			hi := min(lo+2*width, n)
			mergeRunsG(a[lo:hi], width, scratch[lo:lo+width], cmp)
		}
	}
}

// ---- pooled typed scratch buffers ----

// recPools holds the reusable record buffers of one (K, V)
// instantiation, with the capacity bound and box recycling of sort.go's
// slicePool, and cleared on the way in.
type recPools[K, V any] struct {
	recBuf slicePool[Rec[K, V]]
}

// recPoolRegistry maps a Rec[K, V] type to its process-wide *recPools:
// generic package-level variables do not exist in Go, so this registry
// is how typed scratch buffers survive across runs and jobs. Looked up
// once per run, never on a per-record path.
var recPoolRegistry sync.Map // reflect.Type -> *recPools[K, V]

func poolFor[K, V any]() *recPools[K, V] {
	key := reflect.TypeOf((*Rec[K, V])(nil))
	if p, ok := recPoolRegistry.Load(key); ok {
		return p.(*recPools[K, V])
	}
	p, _ := recPoolRegistry.LoadOrStore(key, &recPools[K, V]{})
	return p.(*recPools[K, V])
}

// outPoolRegistry pools reduce-output buffers per output type O. A
// reduce task's emissions are copied into Result.Output at the end of
// the run, so the per-task buffers themselves are recyclable.
var outPoolRegistry sync.Map // reflect.Type -> *slicePool[O]

func outPoolFor[O any]() *slicePool[O] {
	key := reflect.TypeOf((*[]O)(nil))
	if p, ok := outPoolRegistry.Load(key); ok {
		return p.(*slicePool[O])
	}
	p, _ := outPoolRegistry.LoadOrStore(key, &slicePool[O]{})
	return p.(*slicePool[O])
}

func getOutBuf[O any](pool *slicePool[O]) []O {
	return pool.get()[:0]
}

func putOutBuf[O any](pool *slicePool[O], b []O) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	clear(b[:cap(b)])
	pool.put(b[:0])
}

// getRecBuf returns an empty []Rec with whatever capacity a previous
// task of this run left behind.
func (p *recPools[K, V]) getRecBuf() []Rec[K, V] {
	return p.recBuf.get()[:0]
}

// putRecBuf recycles a buffer. Oversized or empty backing arrays are
// dropped on the floor for the GC; recycled ones are cleared so the
// pool does not pin the previous task's keys and values. Pooled buffers
// are zero up to their capacity, so b's length must cover every record
// written since getRecBuf (its high-water mark): only that prefix is
// cleared.
func (p *recPools[K, V]) putRecBuf(b []Rec[K, V]) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	clear(b)
	p.recBuf.put(b[:0])
}

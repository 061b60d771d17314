package mapreduce

import "sync"

// This file holds the engine's allocation-conscious sorting machinery:
// a dedicated stable merge sort over []KeyValue that calls the job's
// comparator directly (no sort.Interface indirection, no closure over
// boxed indexes), and the sync.Pool-backed scratch buffers the task hot
// paths reuse. See DESIGN.md ("Allocation discipline").

// insertionRun is the run length below which insertion sort beats
// merging; it is also the initial width of the bottom-up merge.
const insertionRun = 24

// maxPooledCap bounds the capacity of slices returned to the pools so a
// single huge job cannot pin arbitrarily large buffers for the rest of
// the process.
const maxPooledCap = 1 << 16

// sortKVsStable sorts kvs by cmp over keys, preserving the relative
// order of equal keys (the emission order within one map task, which the
// shuffle's stability guarantee is built on).
func sortKVsStable(kvs []KeyValue, cmp func(a, b any) int) {
	n := len(kvs)
	if n < 2 {
		return
	}
	if n <= insertionRun {
		insertionSortKVs(kvs, cmp)
		return
	}
	for lo := 0; lo < n; lo += insertionRun {
		hi := lo + insertionRun
		if hi > n {
			hi = n
		}
		insertionSortKVs(kvs[lo:hi], cmp)
	}
	scratch := getKVBuf()
	if cap(scratch) < n {
		scratch = make([]KeyValue, n)
	}
	scratch = scratch[:n]
	for width := insertionRun; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			mergeRuns(kvs[lo:hi], width, scratch, cmp)
		}
	}
	putKVBuf(scratch)
}

// insertionSortKVs is a stable insertion sort (equal keys never swap).
func insertionSortKVs(a []KeyValue, cmp func(x, y any) int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && cmp(a[j].Key, a[j-1].Key) < 0; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// mergeRuns merges the two adjacent sorted runs a[:mid] and a[mid:] in
// place, taking from the left run on ties (stability). The left run is
// staged in scratch; the merged output is written from the front of a,
// which can never overtake the unread part of the right run.
func mergeRuns(a []KeyValue, mid int, scratch []KeyValue, cmp func(x, y any) int) {
	if cmp(a[mid-1].Key, a[mid].Key) <= 0 {
		return // already in order
	}
	left := scratch[:mid]
	copy(left, a[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if cmp(a[j].Key, left[i].Key) < 0 {
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

// ---- pooled scratch buffers ----

// slicePool recycles []T scratch buffers. sync.Pool can only hold
// pointers, and the obvious `pool.Put(&b)` heap-allocates a fresh
// slice-header box on every Put — which profiling showed as three of
// the engine's top allocation sites. The boxes themselves therefore
// round-trip through a second pool: get() strips the slice out of its
// box and parks the empty box for the next put() to reuse, so the
// steady state allocates nothing on either side.
type slicePool[T any] struct {
	bufs  sync.Pool
	boxes sync.Pool
}

func (p *slicePool[T]) get() []T {
	if b, ok := p.bufs.Get().(*[]T); ok {
		s := *b
		*b = nil
		p.boxes.Put(b)
		return s
	}
	return nil
}

func (p *slicePool[T]) put(s []T) {
	box, ok := p.boxes.Get().(*[]T)
	if !ok {
		box = new([]T)
	}
	*box = s
	p.bufs.Put(box)
}

var kvBufPool slicePool[KeyValue]

// getKVBuf returns an empty []KeyValue with whatever capacity a previous
// task left behind.
func getKVBuf() []KeyValue {
	return kvBufPool.get()[:0]
}

// putKVBuf recycles a buffer. Oversized or empty backing arrays are
// dropped on the floor for the GC; recycled ones are cleared so the
// pool does not pin the previous job's keys and values.
func putKVBuf(b []KeyValue) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	clear(b[:cap(b)])
	kvBufPool.put(b[:0])
}

// getScratch returns a length-n scratch slice with arbitrary contents
// from a pool of pointer-free buffers. Misses allocate the next
// power-of-two capacity so slightly-growing request sequences (spill
// batches wobble around the byte budget) converge on one reused buffer
// instead of allocating every time.
func getScratch[T any](pool *slicePool[T], n int) []T {
	b := pool.get()
	if cap(b) < n {
		c := 1
		for c < n {
			c <<= 1
		}
		return make([]T, n, c)
	}
	return b[:n]
}

func putScratch[T any](pool *slicePool[T], b []T) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	pool.put(b[:0])
}

var int32BufPool slicePool[int32]

func getInt32Buf(n int) []int32 { return getScratch(&int32BufPool, n) }
func putInt32Buf(b []int32)     { putScratch(&int32BufPool, b) }

var runsBufPool slicePool[[]KeyValue]

// getRunsBuf returns an empty [][]KeyValue with capacity for at least n
// runs.
func getRunsBuf(n int) [][]KeyValue {
	b := runsBufPool.get()[:0]
	if cap(b) < n {
		return make([][]KeyValue, 0, n)
	}
	return b
}

func putRunsBuf(b [][]KeyValue) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	clear(b[:cap(b)]) // drop bucket references
	runsBufPool.put(b[:0])
}

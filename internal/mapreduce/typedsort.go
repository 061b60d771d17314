package mapreduce

import (
	"reflect"
	"sync"
)

// Typed counterpart of sort.go: a dedicated stable merge sort over
// []Rec[K, V] that calls the run's record comparator directly (binary
// key codes first, the job comparator only on code ties), plus the
// sync.Pool-backed scratch buffers the typed task hot paths reuse.
// Generic pools cannot be package-level globals, so each run owns a
// recPools instance shared by its tasks (see runState).

// sortRecsStable sorts recs with cmpRec, preserving the relative order
// of equal keys (the emission order within one map task, which the
// shuffle's stability guarantee is built on). Large inputs split across
// the run's sortLimiter workers (parsort.go); the parallel sort is
// bitwise-identical to the serial one.
func (st *runState[I, K, V, O]) sortRecsStable(recs []Rec[K, V]) {
	n := len(recs)
	if n < 2 {
		return
	}
	if n <= insertionRun {
		insertionSortG(recs, st.cmp)
		return
	}
	scratch := st.pools.getRecBuf()
	if cap(scratch) < n {
		scratch = make([]Rec[K, V], n)
	}
	scratch = scratch[:n]
	stableSortParallelG(recs, scratch, st.limiter, st.cmp)
	st.pools.putRecBuf(scratch)
}

// sortBuckets sorts one map task's partition buckets, spreading large
// buckets across the run's free sort workers. Each bucket sort is
// independent (disjoint subslices of one flat array) and pulls its own
// pooled scratch, so the only coordination is the limiter itself.
func (st *runState[I, K, V, O]) sortBuckets(buckets [][]Rec[K, V]) {
	var wg sync.WaitGroup
	for _, b := range buckets {
		if len(b) < 2 {
			continue
		}
		if len(b) >= parallelSortMin && st.limiter.tryAcquire() {
			wg.Add(1)
			go func(b []Rec[K, V]) {
				defer wg.Done()
				defer st.limiter.release()
				st.sortRecsStable(b)
			}(b)
		} else {
			st.sortRecsStable(b)
		}
	}
	wg.Wait()
}

// ---- pooled typed scratch buffers ----

// recPools holds the reusable record buffers of one (K, V)
// instantiation. The capacity bound, clearing discipline, and box
// recycling mirror the boxed pools in sort.go (slicePool).
type recPools[K, V any] struct {
	recBuf slicePool[Rec[K, V]]
}

// recPoolRegistry maps a Rec[K, V] type to its process-wide *recPools:
// generic package-level variables do not exist in Go, so this registry
// is how typed scratch buffers survive across runs and jobs the way the
// boxed engine's global pools do. Looked up once per run, never on a
// per-record path.
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
// pool does not pin the previous task's keys and values.
func (p *recPools[K, V]) putRecBuf(b []Rec[K, V]) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	clear(b[:cap(b)])
	p.recBuf.put(b[:0])
}

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

// cmpSortEntryCode orders the entries of one partition by code.
func cmpSortEntryCode(a, b *sortEntry) int { return a.code.Cmp(b.code) }

// sortedEntries is the engine's one map-side sort: it returns the order
// in which a map task's buffered records leave it — by reduce partition,
// then by key, equal keys in emission order (the order the shuffle's
// stability guarantee is built on) — as entries the caller gathers from
// (into the tail's bucket array, or into a spilled run) and returns to
// sortEntryPool.
//
// No step touches a record unless it must. Entries are dealt into
// partition order by counting, then each partition's entries are sorted
// by code. Only when equal codes do not mean equal keys (a coding that
// is not Exact, or none: all codes zero) is each run of equal codes then
// sorted by the job's Compare, reached through idx. Such a run is in
// emission order, so its records are visited front to back, and when
// its keys are in fact all equal — every key no longer than a prefix
// code's 16 bytes — the sort finds it already in order after one pass.
// Both sorts are the shared stable merge sort, parallel when the run's
// limiter has free workers and bitwise-identical to the serial order
// either way (parsort.go).
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
		stableSortParallelG(entries[lo:hi], scratch[lo:hi], rs.limiter, cmpSortEntryCode)
		if byKey != nil {
			for lo < hi {
				tied := lo + 1
				for tied < hi && entries[tied].code == entries[lo].code {
					tied++
				}
				stableSortParallelG(entries[lo:tied], scratch[lo:tied], rs.limiter, byKey)
				lo = tied
			}
		}
		lo = hi
	}
	return entries, nil
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

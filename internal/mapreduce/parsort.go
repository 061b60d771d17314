package mapreduce

import (
	"runtime"
	"sync"
)

// Parallel stable sorting. The task hot paths (map-side bucket sort,
// spill-run sort) funnel into the generic machinery below: a bottom-up
// stable merge sort that can split the input into contiguous chunks,
// sort the chunks on worker goroutines, and merge adjacent chunks
// pairwise — also in parallel, since the merges of one level touch
// disjoint regions of the array and of the shared scratch buffer.
//
// Correctness does not depend on the split: a stable sort's output is
// the unique permutation ordered by (comparator, original index), and
// chunked merging preserves stability because chunks are contiguous
// (every element of the left chunk precedes every element of the right
// chunk in the original order) and mergeRunsG takes from the left run
// on ties. So the parallel sort is bitwise-identical to the serial one
// for any chunk count, including the degenerate count of 1 — which is
// exactly the serial sort. See DESIGN.md ("Parallel sort").
//
// Concurrency is bounded per run, not per sort call: a run owns one
// sortLimiter sized by Engine.Parallelism, and every concurrent sort —
// across tasks and within one task — competes for the same helper
// tokens. A sort that finds no free token degrades to serial inline
// work instead of queueing, so total sort goroutines never exceed the
// engine's worker bound and small inputs never pay synchronization.

// insertionRun is the run length below which insertion sort beats
// merging; it is also the initial width of the bottom-up merge.
const insertionRun = 24

// parallelSortMin is the slice length below which chunking is not
// attempted: goroutine handoff costs more than sorting this many
// records inline.
const parallelSortMin = 2048

// sortLimiter is a token semaphore bounding the *extra* goroutines all
// sorts of one run may spawn (the calling goroutine is free). A nil
// limiter means serial sorting everywhere.
type sortLimiter struct {
	tokens chan struct{}
}

// newSortLimiter sizes the limiter from the engine's parallelism:
// workers-1 helper tokens, so sorting can use at most the same number
// of goroutines the task supervisor would. Parallelism 0 follows the
// supervisor's convention of "no fixed bound" and sizes by GOMAXPROCS;
// a single-worker engine gets a nil limiter (pure serial sorts).
func newSortLimiter(parallelism int) *sortLimiter {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	extra := workers - 1
	if extra <= 0 {
		return nil
	}
	l := &sortLimiter{tokens: make(chan struct{}, extra)}
	for i := 0; i < extra; i++ {
		l.tokens <- struct{}{}
	}
	return l
}

// tryAcquire grabs a helper token if one is free. Never blocks: callers
// that lose the race do the work inline.
func (l *sortLimiter) tryAcquire() bool {
	if l == nil {
		return false
	}
	select {
	case <-l.tokens:
		return true
	default:
		return false
	}
}

func (l *sortLimiter) release() {
	l.tokens <- struct{}{}
}

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

// stableSortSerialG sorts a with the classic insertion-run + bottom-up
// merge scheme. scratch must hold at least len(a) elements.
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

// stableSortParallelG sorts a, splitting across helper goroutines when
// the limiter has free tokens. scratch must hold at least len(a)
// elements; chunk sorts and level merges slice disjoint regions out of
// it, so one buffer serves every worker. Output is bitwise-identical to
// stableSortSerialG (see the file comment for the argument).
func stableSortParallelG[T any](a, scratch []T, lim *sortLimiter, cmp func(x, y *T) int) {
	n := len(a)
	if n < parallelSortMin || lim == nil {
		stableSortSerialG(a, scratch, cmp)
		return
	}
	// Grab helper tokens greedily, but never cut chunks below the
	// serial threshold: each extra worker must have a full chunk's
	// worth of records to be worth its handoff.
	helpers := 0
	maxHelpers := n/parallelSortMin - 1
	for helpers < maxHelpers && lim.tryAcquire() {
		helpers++
	}
	if helpers == 0 {
		stableSortSerialG(a, scratch, cmp)
		return
	}
	defer func() {
		for i := 0; i < helpers; i++ {
			lim.release()
		}
	}()

	chunks := helpers + 1
	width := (n + chunks - 1) / chunks
	// Sort the chunks concurrently: helpers take one chunk each, the
	// calling goroutine keeps the last.
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += width {
		hi := min(lo+width, n)
		if hi-lo < 2 {
			continue
		}
		if lo+width < n { // not the last chunk: hand to a helper
			wg.Add(1)
			go func(c, s []T) {
				defer wg.Done()
				stableSortSerialG(c, s, cmp)
			}(a[lo:hi], scratch[lo:hi])
		} else {
			stableSortSerialG(a[lo:hi], scratch[lo:hi], cmp)
		}
	}
	wg.Wait()
	// Merge adjacent chunks pairwise, doubling the width per level.
	// Merges within a level write disjoint [lo, hi) regions of a and
	// stage their left runs in disjoint scratch[lo:lo+w] regions, so
	// they run concurrently; the last merge of each level stays on the
	// calling goroutine.
	for w := width; w < n; w *= 2 {
		last := -1
		for lo := 0; lo+w < n; lo += 2 * w {
			last = lo
		}
		for lo := 0; lo+w < n; lo += 2 * w {
			hi := min(lo+2*w, n)
			if lo != last {
				wg.Add(1)
				go func(region, s []T) {
					defer wg.Done()
					mergeRunsG(region, w, s, cmp)
				}(a[lo:hi], scratch[lo:lo+w])
			} else {
				mergeRunsG(a[lo:hi], w, scratch[lo:lo+w], cmp)
			}
		}
		wg.Wait()
	}
}

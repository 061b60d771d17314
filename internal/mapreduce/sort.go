package mapreduce

import "sync"

// This file holds the sync.Pool-backed scratch buffers the task hot
// paths reuse. See DESIGN.md ("Allocation discipline").

// maxPooledCap bounds the capacity of slices returned to the pools so a
// single huge job cannot pin arbitrarily large buffers for the rest of
// the process.
const maxPooledCap = 1 << 16

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

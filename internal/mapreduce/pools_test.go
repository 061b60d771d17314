package mapreduce

// DrainRecBufs empties the process-wide pool of []Rec[K, V] buffers and
// returns what it held, at full capacity, so tests outside the package
// can check the pool's invariant: a pooled buffer references nothing.
// sync.Pool hides each processor's most recent Put from other
// processors, so a drain may miss a few buffers.
func DrainRecBufs[K, V any]() [][]Rec[K, V] {
	p := poolFor[K, V]()
	var bufs [][]Rec[K, V]
	for b := p.recBuf.get(); b != nil; b = p.recBuf.get() {
		bufs = append(bufs, b[:cap(b)])
	}
	return bufs
}

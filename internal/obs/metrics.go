package obs

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64. The zero value
// is ready to use; all methods are nil-safe so instrumented code can
// carry a nil *Counter when observability is off.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

func (c *Counter) Inc() { c.Add(1) }

func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic int64 that can move both ways (queue depths,
// in-flight attempts). Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per bit position: bucket i counts values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Power-of-two
// buckets over the full int64 range mean no configuration and no
// branches beyond one bits.Len64; exact Sum/Count/Min/Max ride
// alongside, so derived views (mean, max/mean imbalance) lose nothing
// to bucketing.
const histBuckets = 65

// Histogram is a lock-free histogram with exact count, sum, min, and
// max. Observe is a handful of atomic adds plus two CAS loops that
// almost always exit on the first load. Nil-safe.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until the first observation
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns a ready histogram (min primed to MaxInt64).
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value. Negative values are clamped to 0 for
// bucketing but kept exact in sum/min/max.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	u := v
	if u < 0 {
		u = 0
	}
	h.buckets[bits.Len64(uint64(u))].Add(1)
}

// HistSnapshot is a consistent-enough point-in-time copy (individual
// fields are atomic; cross-field skew is bounded by in-flight Observes).
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
}

// Snapshot returns the current totals; an empty histogram reports all
// zeros.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	return s
}

// MaxOverMean is the paper's load-imbalance measure: the slowest
// task's time over the mean task time. 0 for an empty histogram.
func (s HistSnapshot) MaxOverMean() float64 {
	if s.Count == 0 || s.Mean == 0 {
		return 0
	}
	return float64(s.Max) / s.Mean
}

// Registry is a named metric store. Get-or-create happens at engine or
// server setup under a mutex; hot paths hold the returned pointers and
// never touch the maps again.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// The name grammar of each kind: <area>[.<area>...].<noun>_<suffix>,
// every word lowercase [a-z][a-z0-9]*, the leaf's words joined by '_'
// and its last word the kind's suffix. /debug/vars and trace tooling
// read a metric's area, kind and unit off its name alone, and a name is
// append-only once emitted.
var (
	counterName   = metricName("total")
	gaugeName     = metricName("inflight|pending|live|waiting")
	histogramName = metricName("ns|bytes|seconds")
)

func metricName(suffixes string) *regexp.Regexp {
	return regexp.MustCompile(`^([a-z][a-z0-9]*\.)+[a-z][a-z0-9]*(_[a-z0-9]+)*_(` + suffixes + `)$`)
}

// handle returns the metric of that name in m, creating it with mk on
// first use. A name is checked when it is registered, and one off its
// kind's grammar panics: registration happens at setup only, so the
// first run or test that builds the metric fails.
func handle[T any](r *Registry, m map[string]*T, grammar *regexp.Regexp, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := m[name]
	if !ok {
		if !grammar.MatchString(name) {
			panic(fmt.Sprintf("obs: metric name %q does not match %s", name, grammar))
		}
		h = mk()
		m[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a nil (still usable) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return handle(r, r.counters, counterName, name, func() *Counter { return &Counter{} })
}

func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return handle(r, r.gauges, gaugeName, name, func() *Gauge { return &Gauge{} })
}

func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return handle(r, r.hists, histogramName, name, NewHistogram)
}

// Snapshot renders every metric into a JSON-encodable map: counters
// and gauges as int64, histograms as HistSnapshot objects.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// EngineMetrics holds direct pointers to the engine's metrics so the
// supervisor and dataflows never do a map lookup: the registry resolves
// each name exactly once, in newEngineMetrics at Observer construction.
//
// Names follow the registry's grammar (counterName and its siblings):
// "engine." for supervisor/dataflow metrics, "dist.master." /
// "dist.worker." for the distributed runtime.
type EngineMetrics struct {
	Attempts *Counter // engine.attempts_total
	Retries  *Counter // engine.retries_total
	Commits  *Counter // engine.tasks_committed_total
	Degraded *Counter // engine.remote_degradations_total

	Inflight     *Gauge // engine.attempts_inflight
	TasksPending *Gauge // engine.tasks_pending (queue depth per running phase)

	SpillRuns         *Counter // engine.spill_runs_total
	SpillBytesWritten *Counter // engine.spill_bytes_written_total
	SpillBytesRead    *Counter // engine.spill_bytes_read_total

	MapTaskNS    *Histogram // engine.map_task_ns
	ReduceTaskNS *Histogram // engine.reduce_task_ns
}

func newEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Attempts:          r.Counter("engine.attempts_total"),
		Retries:           r.Counter("engine.retries_total"),
		Commits:           r.Counter("engine.tasks_committed_total"),
		Degraded:          r.Counter("engine.remote_degradations_total"),
		Inflight:          r.Gauge("engine.attempts_inflight"),
		TasksPending:      r.Gauge("engine.tasks_pending"),
		SpillRuns:         r.Counter("engine.spill_runs_total"),
		SpillBytesWritten: r.Counter("engine.spill_bytes_written_total"),
		SpillBytesRead:    r.Counter("engine.spill_bytes_read_total"),
		MapTaskNS:         r.Histogram("engine.map_task_ns"),
		ReduceTaskNS:      r.Histogram("engine.reduce_task_ns"),
	}
}

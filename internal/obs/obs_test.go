package obs

// Unit tests for the observability primitives themselves: ring claim
// and drop-newest overflow, interning, histogram exactness, registry
// identity, both exporters' output validity, and the slog adapters.
// The engine-level invariants (span pairing, nesting, reconciliation
// with Metrics) live in the mapreduce and er test suites.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestTracerRecordsAndDropsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Event{Kind: KTask, Task: int32(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if got := tr.Cap(); got != 4 {
		t.Fatalf("Cap = %d, want 4", got)
	}
	// Drop-newest keeps the contiguous prefix: tasks 0..3, in order.
	for i, ev := range tr.Events() {
		if ev.Task != int32(i) {
			t.Fatalf("event %d: Task = %d, want %d (prefix must be contiguous)", i, ev.Task, i)
		}
	}
	// Timestamps are monotone non-decreasing in claim order.
	events := tr.Events()
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("timestamps not monotone: event %d at %d after %d", i, events[i].TS, events[i-1].TS)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Cap() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must report an empty buffer")
	}
	if tr.InternJob("x") != 0 || tr.JobName(0) != "" {
		t.Fatal("nil tracer interning must be inert")
	}
}

func TestInternJobStableIDs(t *testing.T) {
	tr := NewTracer(8)
	a := tr.InternJob("bdm")
	b := tr.InternJob("match")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids must be distinct and nonzero: %d, %d", a, b)
	}
	if tr.InternJob("bdm") != a {
		t.Fatal("re-interning must return the same id")
	}
	if tr.JobName(a) != "bdm" || tr.JobName(b) != "match" {
		t.Fatal("JobName must round-trip")
	}
	if tr.JobName(99) != "" {
		t.Fatal("unknown id must resolve to empty")
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 160 || s.Min != 10 || s.Max != 100 {
		t.Fatalf("snapshot = %+v, want count=4 sum=160 min=10 max=100", s)
	}
	if s.Mean != 40 {
		t.Fatalf("Mean = %g, want 40", s.Mean)
	}
	if got := s.MaxOverMean(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("MaxOverMean = %g, want 2.5", got)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if s := nilH.Snapshot(); s != (HistSnapshot{}) {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
	if s := NewHistogram().Snapshot(); s != (HistSnapshot{}) {
		t.Fatalf("empty histogram snapshot = %+v, want zero (min must not leak MaxInt64)", s)
	}
	if (HistSnapshot{}).MaxOverMean() != 0 {
		t.Fatal("empty MaxOverMean must be 0")
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b_total")
	if r.Counter("a.b_total") != c {
		t.Fatal("same name must return the same counter")
	}
	c.Add(3)
	r.Gauge("a.g_live").Set(-2)
	r.Histogram("a.h_ns").Observe(7)
	snap := r.Snapshot()
	if snap["a.b_total"] != int64(3) {
		t.Fatalf("counter snapshot = %v", snap["a.b_total"])
	}
	if snap["a.g_live"] != int64(-2) {
		t.Fatalf("gauge snapshot = %v", snap["a.g_live"])
	}
	if hs, ok := snap["a.h_ns"].(HistSnapshot); !ok || hs.Count != 1 {
		t.Fatalf("hist snapshot = %#v", snap["a.h_ns"])
	}
	if names := slices.Sorted(maps.Keys(snap)); !slices.Equal(names, []string{"a.b_total", "a.g_live", "a.h_ns"}) {
		t.Fatalf("metric names = %v", names)
	}
}

// TestNilRegistryYieldsUsableNilHandles holds the disabled path's
// contract: "observability off" is spelled nil, so every exported method
// of every handle reachable from Observer's fields must work on a nil
// receiver and report only zero values. Each row calls one method; the
// reflective walk below fails on a method that has no row.
func TestNilRegistryYieldsUsableNilHandles(t *testing.T) {
	var (
		o  *Observer
		tr *Tracer
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
	)
	calls := map[string]func() bool{
		"Observer.Logger":    func() bool { return o.Logger() == slog.Default() },
		"Tracer.Record":      func() bool { tr.Record(Event{}); return true },
		"Tracer.InternJob":   func() bool { return tr.InternJob("x") == 0 },
		"Tracer.JobName":     func() bool { return tr.JobName(0) == "" },
		"Tracer.Events":      func() bool { return tr.Events() == nil },
		"Tracer.Len":         func() bool { return tr.Len() == 0 },
		"Tracer.Dropped":     func() bool { return tr.Dropped() == 0 },
		"Tracer.Cap":         func() bool { return tr.Cap() == 0 },
		"Registry.Counter":   func() bool { return r.Counter("a.b_total") == nil },
		"Registry.Gauge":     func() bool { return r.Gauge("a.b_live") == nil },
		"Registry.Histogram": func() bool { return r.Histogram("a.b_ns") == nil },
		"Registry.Snapshot":  func() bool { return len(r.Snapshot()) == 0 },
		"Counter.Add":        func() bool { c.Add(1); return true },
		"Counter.Inc":        func() bool { c.Inc(); return true },
		"Counter.Value":      func() bool { return c.Value() == 0 },
		"Gauge.Add":          func() bool { g.Add(1); return true },
		"Gauge.Set":          func() bool { g.Set(1); return true },
		"Gauge.Value":        func() bool { return g.Value() == 0 },
		"Histogram.Observe":  func() bool { h.Observe(1); return true },
		"Histogram.Snapshot": func() bool { return h.Snapshot() == HistSnapshot{} },
	}
	for name, call := range calls {
		if !call() {
			t.Errorf("%s on a nil receiver reports a non-zero value", name)
		}
	}
	// Every struct type of this package reachable through Observer's
	// (pointer) fields is a handle; a method a row does not name is a
	// method nobody has called on nil.
	var handles []string
	seen := map[reflect.Type]bool{}
	for queue := []reflect.Type{reflect.TypeOf(Observer{})}; len(queue) > 0; queue = queue[1:] {
		typ := queue[0]
		if seen[typ] {
			continue
		}
		seen[typ] = true
		handles = append(handles, typ.Name())
		for i := 0; i < typ.NumField(); i++ {
			ft := typ.Field(i).Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && ft.PkgPath() == typ.PkgPath() {
				queue = append(queue, ft)
			}
		}
		for pt, i := reflect.PointerTo(typ), 0; i < pt.NumMethod(); i++ {
			if name := typ.Name() + "." + pt.Method(i).Name; calls[name] == nil {
				t.Errorf("%s has no nil-receiver row", name)
			}
		}
	}
	slices.Sort(handles)
	if want := []string{"Counter", "EngineMetrics", "Gauge", "Histogram", "Observer", "Registry", "Tracer"}; !slices.Equal(handles, want) {
		t.Errorf("handles reachable from Observer = %v, want %v", handles, want)
	}
}

// TestRegistryRefusesOffGrammarNames: registering a name off its kind's
// grammar panics, and the name is not registered.
func TestRegistryRefusesOffGrammarNames(t *testing.T) {
	r := NewRegistry()
	register := map[string]func(string){
		"counter":   func(n string) { r.Counter(n) },
		"gauge":     func(n string) { r.Gauge(n) },
		"histogram": func(n string) { r.Histogram(n) },
	}
	for _, tc := range []struct {
		kind, name string
		ok         bool
	}{
		{"counter", "engine.attempts_total", true},
		{"counter", "dist.master.reassigned_attempts_total", true},
		{"gauge", "engine.tasks_pending", true},
		{"gauge", "dist.master.workers_live", true},
		{"histogram", "dist.master.lease_age_ns", true},
		{"histogram", "runio.spill_bytes", true},
		{"histogram", "a1.b2_c3_seconds", true},
		{"counter", "attempts_total", false}, // no area
		{"counter", "engine.retries", false}, // no suffix
		{"counter", "engine.attempts_count", false},
		{"counter", "engine.retries_ns", false}, // another kind's suffix
		{"counter", "Engine.attempts_total", false},
		{"counter", "engine..attempts_total", false},
		{"counter", "engine.attempts__total", false},
		{"counter", "engine.1attempts_total", false},
		{"counter", "engine.attempts-x_total", false},
		{"gauge", "engine.tasks_total", false},
		{"gauge", "engine.g", false},
		{"histogram", "engine.map_task_ms", false},
		{"histogram", "engine.map_task_ns.x", false},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			register[tc.kind](tc.name)
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("%s %q: panicked = %v, want %v", tc.kind, tc.name, panicked, !tc.ok)
		}
	}
	if snap := r.Snapshot(); len(snap) != 7 {
		t.Errorf("registered %v, want the seven valid names only", slices.Sorted(maps.Keys(snap)))
	}
}

func TestWriteNDJSONIsValidAndComplete(t *testing.T) {
	tr := NewTracer(16)
	job := tr.InternJob("wordcount")
	tr.Record(Event{Type: EvBegin, Kind: KTask, Phase: PhaseMap, Job: job, Task: 2, Attempt: 0})
	tr.Record(Event{Type: EvEnd, Kind: KTask, Phase: PhaseMap, Job: job, Task: 2, Attempt: 0, Arg: 1})
	tr.Record(Event{Type: EvInstant, Kind: KRetry, Phase: PhaseReduce, Job: job, Task: 1, Arg: 55})
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 { // 3 events + meta
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if lines[0]["type"] != "begin" || lines[0]["kind"] != "task" || lines[0]["job"] != "wordcount" || lines[0]["phase"] != "map" {
		t.Fatalf("first line = %v", lines[0])
	}
	if lines[2]["kind"] != "retry" || lines[2]["arg"] != float64(55) {
		t.Fatalf("instant line = %v", lines[2])
	}
	meta := lines[3]
	if meta["meta"] != "trace" || meta["events"] != float64(3) || meta["dropped"] != float64(0) {
		t.Fatalf("meta line = %v", meta)
	}
}

// chromeDoc mirrors the exporter's wrapper for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int32          `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTracePairsSpans(t *testing.T) {
	tr := NewTracer(16)
	job := tr.InternJob("wc")
	tr.Record(Event{Type: EvBegin, Kind: KTask, Phase: PhaseMap, Job: job, Task: 0})
	tr.Record(Event{Type: EvEnd, Kind: KTask, Phase: PhaseMap, Job: job, Task: 0})
	tr.Record(Event{Type: EvInstant, Kind: KCommit, Phase: PhaseMap, Job: job, Task: 0})
	tr.Record(Event{Type: EvBegin, Kind: KDispatch, Phase: PhaseReduce, Job: job, Task: 1, Worker: 3})
	// Dispatch to worker 3 left unclosed: must surface as an instant.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xs, is, metas int
	var sawWorkerLane, sawUnclosed bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
		case "i":
			is++
			if strings.Contains(ev.Name, "unclosed") {
				sawUnclosed = true
			}
		case "M":
			metas++
			if ev.Pid == 3 && ev.Args["name"] == "worker 3" {
				sawWorkerLane = true
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if xs != 1 {
		t.Fatalf("complete events = %d, want 1", xs)
	}
	if is != 2 { // the commit instant + the unclosed dispatch
		t.Fatalf("instants = %d, want 2", is)
	}
	if metas != 2 { // pid 0 (driver) and pid 3 (worker 3)
		t.Fatalf("process metadata = %d, want 2", metas)
	}
	if !sawUnclosed {
		t.Fatal("unclosed begin must be emitted as a labeled instant")
	}
	if !sawWorkerLane {
		t.Fatal("worker pid must get a 'worker N' process_name")
	}
}

func TestObserverDefaultsAndQuiet(t *testing.T) {
	o := New(Options{})
	if o.Tracer == nil || o.Reg == nil || o.Engine == nil || o.Log == nil {
		t.Fatal("New must wire every component")
	}
	if o.Tracer.Cap() != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d", o.Tracer.Cap())
	}
	var nilObs *Observer
	if nilObs.Logger() == nil {
		t.Fatal("nil observer must resolve to the default logger")
	}
	q := Quiet()
	if q.Enabled(nil, slog.LevelError) {
		t.Fatal("Quiet logger must discard everything")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bad level must error")
	}
}

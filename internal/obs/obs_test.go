package obs

// Unit tests for the observability primitives themselves: ring claim
// and drop-newest overflow, interning, both exporters' output validity,
// and the slog adapters.
// The engine-level invariants (span pairing, nesting, reconciliation
// with Metrics) live in the mapreduce and er test suites.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
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

// TestNilRegistryYieldsUsableNilHandles holds the disabled path's
// contract: "observability off" is spelled nil, so every exported method
// of every handle reachable from Observer's fields must work on a nil
// receiver and report only zero values. Each row calls one method; the
// reflective walk below fails on a method that has no row.
func TestNilRegistryYieldsUsableNilHandles(t *testing.T) {
	var (
		o  *Observer
		tr *Tracer
	)
	calls := map[string]func() bool{
		"Observer.Logger":  func() bool { return o.Logger() == slog.Default() },
		"Tracer.Record":    func() bool { tr.Record(Event{}); return true },
		"Tracer.InternJob": func() bool { return tr.InternJob("x") == 0 },
		"Tracer.JobName":   func() bool { return tr.JobName(0) == "" },
		"Tracer.Events":    func() bool { return tr.Events() == nil },
		"Tracer.Len":       func() bool { return tr.Len() == 0 },
		"Tracer.Dropped":   func() bool { return tr.Dropped() == 0 },
		"Tracer.Cap":       func() bool { return tr.Cap() == 0 },
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
	if want := []string{"Observer", "Tracer"}; !slices.Equal(handles, want) {
		t.Errorf("handles reachable from Observer = %v, want %v", handles, want)
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
	if o.Tracer == nil || o.Log == nil {
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

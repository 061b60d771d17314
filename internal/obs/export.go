package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ndjsonEvent is the NDJSON wire form of one Event: symbolic names for
// enums, the interned job id resolved back to its string.
type ndjsonEvent struct {
	TS      int64  `json:"ts"`
	Type    string `json:"type"`
	Kind    string `json:"kind"`
	Job     string `json:"job,omitempty"`
	Phase   string `json:"phase,omitempty"`
	Task    int32  `json:"task"`
	Attempt int32  `json:"attempt"`
	Worker  int32  `json:"worker"`
	Arg     int64  `json:"arg,omitempty"`
}

var typeNames = [...]string{"begin", "end", "instant"}

// WriteNDJSON writes one JSON object per event, in record order, with
// a final meta line carrying buffer statistics. The format is the
// lossless export: every field of every event, nothing paired or
// inferred.
func WriteNDJSON(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		line := ndjsonEvent{
			TS:      ev.TS,
			Type:    typeNames[ev.Type],
			Kind:    ev.Kind.String(),
			Job:     t.JobName(ev.Job),
			Phase:   PhaseName(ev.Phase),
			Task:    ev.Task,
			Attempt: ev.Attempt,
			Worker:  ev.Worker,
			Arg:     ev.Arg,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	meta := struct {
		Meta    string `json:"meta"`
		Events  int    `json:"events"`
		Dropped int64  `json:"dropped"`
		Cap     int    `json:"cap"`
	}{"trace", t.Len(), t.Dropped(), t.Cap()}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace_event JSON array.
// Timestamps and durations are microseconds (float, so sub-µs spans
// survive). Only the fields Perfetto's importer reads are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope
	Args map[string]any `json:"args,omitempty"` // only on span/instant events
}

// spanKey identifies a Begin/End pair. Multiple live spans with the
// same key stack LIFO, which is the right match for re-entered spans
// of one logical scope (e.g. repeated shuffle fetches of one segment).
type spanKey struct {
	kind    Kind
	phase   uint8
	job     uint32
	task    int32
	attempt int32
	worker  int32
}

func keyOf(ev Event) spanKey {
	return spanKey{ev.Kind, ev.Phase, ev.Job, ev.Task, ev.Attempt, ev.Worker}
}

// chromeTid picks the thread lane inside a process (pid = worker).
// Tasks and everything scoped to a task share lane task+1, so a task's
// attempts, spills, merges, and fetches nest under its span; job- and
// phase-level spans (and process-level instants) live on lane 0. Map
// and reduce phases never overlap in time, so sharing lanes across
// phases is safe.
func chromeTid(ev Event) int32 {
	switch ev.Kind {
	case KJob, KPhase, KWorkerDeath, KReassign:
		return 0
	default:
		return ev.Task + 1
	}
}

// chromeName renders a human-readable span name.
func chromeName(t *Tracer, ev Event) string {
	switch ev.Kind {
	case KJob:
		return "job " + t.JobName(ev.Job)
	case KPhase:
		return PhaseName(ev.Phase) + " phase"
	case KTask:
		return fmt.Sprintf("%s task %d", PhaseName(ev.Phase), ev.Task)
	case KAttempt:
		return fmt.Sprintf("%s task %d attempt %d", PhaseName(ev.Phase), ev.Task, ev.Attempt)
	case KDispatch:
		return fmt.Sprintf("dispatch %s %d/%d", PhaseName(ev.Phase), ev.Task, ev.Attempt)
	case KSpill, KMerge, KShuffleFetch:
		return fmt.Sprintf("%s %s %d/%d", ev.Kind, PhaseName(ev.Phase), ev.Task, ev.Attempt)
	default:
		return ev.Kind.String()
	}
}

func chromeArgs(t *Tracer, ev Event) map[string]any {
	args := map[string]any{
		"task":    ev.Task,
		"attempt": ev.Attempt,
	}
	if name := t.JobName(ev.Job); name != "" {
		args["job"] = name
	}
	if ev.Arg != 0 {
		args["arg"] = ev.Arg
	}
	return args
}

// WriteChromeTrace writes the buffer as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in Perfetto and chrome://tracing.
//
// Begin/End pairs are matched offline and emitted as complete ("X")
// events, which need no strict per-thread nesting — "B"/"E" stacks
// would. The recording process is pid 0 ("driver"); master-side dispatch spans carry the
// target worker id as pid, which renders a distributed run as one
// swimlane per worker. Unclosed spans (crash, buffer truncation) are
// emitted as zero-duration instants so they stay visible.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+8)
	pids := map[int32]bool{}
	open := make(map[spanKey][]Event)
	for _, ev := range events {
		pids[ev.Worker] = true
		switch ev.Type {
		case EvBegin:
			k := keyOf(ev)
			open[k] = append(open[k], ev)
		case EvEnd:
			k := keyOf(ev)
			stack := open[k]
			if len(stack) == 0 {
				// End without a recorded Begin (dropped by the ring):
				// keep it visible as an instant.
				out = append(out, chromeEvent{
					Name: chromeName(t, ev) + " (unmatched end)", Ph: "i",
					TS: float64(ev.TS) / 1e3, Pid: ev.Worker, Tid: chromeTid(ev), S: "t",
				})
				continue
			}
			begin := stack[len(stack)-1]
			open[k] = stack[:len(stack)-1]
			out = append(out, chromeEvent{
				Name: chromeName(t, ev), Ph: "X",
				TS:  float64(begin.TS) / 1e3,
				Dur: float64(ev.TS-begin.TS) / 1e3,
				Pid: ev.Worker, Tid: chromeTid(ev),
				Args: chromeArgs(t, ev),
			})
		case EvInstant:
			out = append(out, chromeEvent{
				Name: chromeName(t, ev), Ph: "i",
				TS: float64(ev.TS) / 1e3, Pid: ev.Worker, Tid: chromeTid(ev), S: "t",
				Args: chromeArgs(t, ev),
			})
		}
	}
	for _, stack := range open {
		for _, begin := range stack {
			out = append(out, chromeEvent{
				Name: chromeName(t, begin) + " (unclosed)", Ph: "i",
				TS: float64(begin.TS) / 1e3, Pid: begin.Worker, Tid: chromeTid(begin), S: "t",
			})
		}
	}
	// Name the process lanes so Perfetto shows "driver" / "worker N"
	// instead of bare pids.
	for pid := range pids {
		name := "driver"
		if pid != 0 {
			name = fmt.Sprintf("worker %d", pid)
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	wrapper := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(wrapper); err != nil {
		return err
	}
	return bw.Flush()
}

// Command tracecheck validates an exported obs trace file — the CI
// dist-smoke gate. For the chrome format it decodes the trace_event
// wrapper and checks the structural properties Perfetto needs: only
// X/i/M phases, non-negative durations, and process_name metadata for
// every pid; -min-complete and -min-worker-lanes turn "the trace is
// non-trivial" and "the run really dispatched to N workers" into hard
// assertions. For ndjson it checks every line parses and the final
// meta line's event count matches the lines before it. -require names
// events that must each appear at least once: a substring of a chrome
// event's name, or an ndjson event's exact kind.
//
// Usage:
//
//	go run ./scripts/tracecheck -format chrome -min-complete 1 -min-worker-lanes 2 trace.json
//	go run ./scripts/tracecheck -format ndjson -require attempt,shuffle-fetch trace.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

func main() {
	var (
		format   = flag.String("format", "chrome", "trace format to validate: chrome or ndjson")
		minX     = flag.Int("min-complete", 1, "chrome: minimum number of complete (X) span events")
		minLanes = flag.Int("min-worker-lanes", 0, "chrome: minimum number of distinct worker process lanes (pid != 0)")
		require  = flag.String("require", "", "comma-separated events that must each appear at least once: chrome event-name substrings (e.g. worker-death,reassign) or ndjson kinds (e.g. attempt,shuffle-fetch)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fail("expected exactly one trace file argument")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()

	var wanted []string
	if *require != "" {
		wanted = strings.Split(*require, ",")
	}
	switch *format {
	case "chrome":
		checkChrome(f, *minX, *minLanes, wanted)
	case "ndjson":
		checkNDJSON(f, wanted)
	default:
		fail("unknown -format %q", *format)
	}
}

func checkChrome(f *os.File, minX, minLanes int, require []string) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		fail("not valid trace_event JSON: %v", err)
	}
	var xs, instants int
	pids := map[int32]bool{}
	named := map[int32]string{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Dur < 0 {
				fail("event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
			}
			pids[ev.Pid] = true
		case "i":
			instants++
			pids[ev.Pid] = true
		case "M":
			if ev.Name == "process_name" {
				name, _ := ev.Args["name"].(string)
				if name == "" {
					fail("event %d: process_name metadata without a name", i)
				}
				named[ev.Pid] = name
			}
		default:
			fail("event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	workerLanes := 0
	for pid, name := range named {
		if pid != 0 && name != "driver" {
			workerLanes++
		}
	}
	for pid := range pids {
		if named[pid] == "" {
			fail("pid %d has events but no process_name metadata", pid)
		}
	}
	if xs < minX {
		fail("only %d complete span(s), want >= %d", xs, minX)
	}
	if workerLanes < minLanes {
		fail("only %d worker lane(s), want >= %d", workerLanes, minLanes)
	}
	for _, want := range require {
		if !slices.ContainsFunc(doc.TraceEvents, func(ev chromeEvent) bool { return strings.Contains(ev.Name, want) }) {
			fail("no event named like %q in the trace", want)
		}
	}
	fmt.Printf("tracecheck: ok — %d complete spans, %d instants, %d process lanes (%d worker)\n",
		xs, instants, len(named), workerLanes)
}

func checkNDJSON(f *os.File, require []string) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events int
	var meta map[string]any
	kinds := map[string]bool{}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fail("line %d: %v", events+1, err)
		}
		if line["meta"] == "trace" {
			meta = line
			continue
		}
		if meta != nil {
			fail("event line after the meta line")
		}
		kind, _ := line["kind"].(string)
		kinds[kind] = true
		events++
	}
	if err := sc.Err(); err != nil {
		fail("%v", err)
	}
	if meta == nil {
		fail("missing final meta line")
	}
	if got, _ := meta["events"].(float64); int(got) != events {
		fail("meta says %d events, file has %d", int(got), events)
	}
	for _, want := range require {
		if !kinds[want] {
			fail("no event of kind %q in the trace", want)
		}
	}
	fmt.Printf("tracecheck: ok — %d ndjson events, meta consistent\n", events)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

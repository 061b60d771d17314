package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// buildErmatch builds the command into a temporary directory.
func buildErmatch(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ermatch")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestBadInvocationsExit2 builds ermatch and checks that out-of-range
// flags are bad invocations — exit 2 with the usage hint, decided before
// the input is opened (the -in file does not exist, which would
// otherwise be a runtime error, exit 1) — that -simulate is an unknown
// flag, since the simulator reads plans and not a run's metrics, as is
// -pairs, since -out - streams the pairs, that -format takes csv only,
// and that a spreadsheet export's byte-order mark is not part of the
// header.
func TestBadInvocationsExit2(t *testing.T) {
	bin := buildErmatch(t)
	missing := filepath.Join(t.TempDir(), "missing.csv")
	const hint, unknown = "run 'ermatch -h' for usage", "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-m", "0"}, hint}, {[]string{"-m", "-1"}, hint}, {[]string{"-r", "0"}, hint},
		{[]string{"-parallelism", "-1"}, hint}, {[]string{"-prefix", "0"}, hint},
		{[]string{"-strategy", "sn"}, hint}, {[]string{"-strategy", "nope"}, hint},
		{[]string{"-threshold", "0"}, hint}, {[]string{"-threshold", "NaN"}, hint},
		{[]string{"-threshold", "1.5"}, hint}, {[]string{"-threshold", "-0.1"}, hint},
		{[]string{"-max-attempts", "-1"}, hint}, {[]string{"-task-timeout", "-1s"}, hint},
		{[]string{"-master", "127.0.0.1:0", "-workers", "-1"}, hint},
		{[]string{"-simulate"}, unknown}, {[]string{"-pairs"}, unknown},
		{[]string{"-format", "ndjson"}, hint}, {[]string{"-out", "-", "-format", "ndjson"}, hint},
	} {
		out, err := exec.Command(bin, append([]string{"-in", missing}, tc.args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("ermatch %v: %v, want exit 2 and %q\n%s", tc.args, err, tc.want, out)
		}
	}
	if out, err := exec.Command(bin, "-in", missing).CombinedOutput(); err == nil || err.(*exec.ExitError).ExitCode() != 1 {
		t.Errorf("ermatch on a missing file: %v, want exit 1\n%s", err, out)
	}
	cmd := exec.Command(bin, "-out", "-", "-m", "2", "-r", "2")
	cmd.Stdin = strings.NewReader("\xef\xbb\xbfid,title\na,foo bar\nb,foo bar\n")
	if out, err := cmd.Output(); err != nil || string(out) != "a,b,similarity\na,b,1\n" {
		t.Errorf("ermatch on input with a byte-order mark: %v\n%s", err, out)
	}
}

// TestFailedRunWritesTrace: a run that fails (every task attempt times
// out, and one attempt is all it gets) exits 3, still writes its -trace
// file with the failed attempts in it, and leaves neither the -out file
// nor its temp file behind.
func TestFailedRunWritesTrace(t *testing.T) {
	bin := buildErmatch(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte("id,title\na,foo bar\nb,foo bar\nc,foo baz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, out := filepath.Join(dir, "t.json"), filepath.Join(dir, "o.csv")
	msg, err := exec.Command(bin, "-in", in, "-task-timeout", "1ns", "-max-attempts", "1",
		"-trace", trace, "-out", out).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("ermatch: %v, want exit 3\n%s", err, msg)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("failed run wrote no trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	attempts := 0
	for _, ev := range doc.TraceEvents {
		if strings.Contains(ev.Name, " attempt ") {
			attempts++
		}
	}
	if attempts == 0 {
		t.Errorf("trace holds no attempt event:\n%s", raw)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*o.csv*"))
	if len(left) != 0 {
		t.Errorf("failed run left output files behind: %v", left)
	}
}

// TestExitCodeClasses maps each failure class to its exit status, the
// wrapped forms a run produces included: corruption reaches ermatch
// inside a *TaskError and must still read as corruption.
func TestExitCodeClasses(t *testing.T) {
	task := func(cause error) error {
		return fmt.Errorf("mapreduce: job x: %w", &mapreduce.TaskError{Phase: mapreduce.MapTask, Task: 1, Attempt: 2, Cause: cause})
	}
	for _, c := range []struct {
		err  error
		want int
	}{
		{errors.New("open in.csv: no such file"), 1},
		{task(context.DeadlineExceeded), 3},
		{task(mapreduce.Fatal(errors.New("bad partition"))), 3},
		{task(fmt.Errorf("%w: bad uvarint", runio.ErrCorrupt)), 4},
		{task(&runio.CorruptError{Path: "m0000.run", What: "trailer"}), 4},
		{task(fmt.Errorf("%w: bad magic", dist.ErrFrame)), 4},
		{fmt.Errorf("dispatch: %w", mapreduce.ErrNoWorkers), 5},
	} {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestMalformedFrameExit4 provokes corruption from the command line: a
// hostile worker accepts the job spec and answers every task with bytes
// that are not a frame, so the run's one attempt fails with
// dist.ErrFrame inside a *TaskError and ermatch must exit 4, not 3. (A
// failed task's 3 is TestFailedRunWritesTrace's; no live workers, 5,
// cannot be provoked: without a worker the engine runs the attempt in
// process.)
func TestMalformedFrameExit4(t *testing.T) {
	bin := buildErmatch(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte("id,title\na,foo bar\nb,foo bar\nc,foo baz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/task" {
			w.Write([]byte("not a frame"))
		}
	}))
	defer hostile.Close()
	addrFile := filepath.Join(dir, "master.addr")
	cmd := exec.Command(bin, "-in", in, "-max-attempts", "1",
		"-master", "127.0.0.1:0", "-master-addr-file", addrFile, "-workers", "1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer cmd.Process.Kill()
	var master []byte
	for deadline := time.Now().Add(20 * time.Second); len(master) == 0; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("master exited before a worker registered: %v\n%s", err, &out)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the master wrote no address")
		}
		master, _ = os.ReadFile(addrFile)
	}
	body := fmt.Sprintf(`{"url": %q, "slots": 1}`, hostile.URL)
	resp, err := http.Post(strings.TrimSpace(string(master))+"/register", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	err = <-done
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 4 {
		t.Errorf("malformed frame from a worker: %v, want exit 4\n%s", err, &out)
	}
}

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// otherwise be a runtime error, exit 1) — and that a spreadsheet
// export's byte-order mark is not part of the header.
func TestBadInvocationsExit2(t *testing.T) {
	bin := buildErmatch(t)
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "-1"}, {"-r", "0"}, {"-parallelism", "-1"}, {"-prefix", "0"},
		{"-strategy", "sn"}, {"-strategy", "nope"},
		{"-threshold", "0"}, {"-threshold", "NaN"}, {"-threshold", "1.5"}, {"-threshold", "-0.1"},
		{"-max-attempts", "-1"}, {"-task-timeout", "-1s"},
	} {
		out, err := exec.Command(bin, append([]string{"-in", missing}, args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "run 'ermatch -h' for usage") {
			t.Errorf("ermatch %v: %v, want exit 2 and the usage hint\n%s", args, err, out)
		}
	}
	if out, err := exec.Command(bin, "-in", missing).CombinedOutput(); err == nil || err.(*exec.ExitError).ExitCode() != 1 {
		t.Errorf("ermatch on a missing file: %v, want exit 1\n%s", err, out)
	}
	cmd := exec.Command(bin, "-pairs", "-m", "2", "-r", "2")
	cmd.Stdin = strings.NewReader("\xef\xbb\xbfid,title\na,foo bar\nb,foo bar\n")
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "a\tb\n") {
		t.Errorf("ermatch on input with a byte-order mark: %v\n%s", err, out)
	}
}

// TestFailedRunWritesTrace: a run that fails (every task attempt times
// out, and one attempt is all it gets) exits 1, still writes its -trace
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
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("ermatch: %v, want exit 1\n%s", err, msg)
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

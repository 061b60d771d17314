package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocationsExit2 builds ermatch and checks that out-of-range
// flags are bad invocations — exit 2 with the usage hint, decided before
// the input is opened (the -in file does not exist, which would
// otherwise be a runtime error, exit 1) — and that a spreadsheet
// export's byte-order mark is not part of the header.
func TestBadInvocationsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ermatch")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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

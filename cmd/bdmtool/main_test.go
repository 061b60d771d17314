package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocationsExit2 builds bdmtool and checks that out-of-range
// flags are bad invocations — exit 2 with the usage hint, decided before
// the input is opened (the -in file does not exist, which would
// otherwise be a runtime error, exit 1) — and that a good invocation
// prints the matrix.
func TestBadInvocationsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bdmtool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "-1"}, {"-r", "0"}, {"-prefix", "0"}, {"-top", "-1"},
		{"-nodes", "0", "-plan", "blocksplit"}, {"-plan", "sn"}, {"stray"},
	} {
		out, err := exec.Command(bin, append([]string{"-in", missing}, args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "run 'bdmtool -h' for usage") {
			t.Errorf("bdmtool %v: %v, want exit 2 and the usage hint\n%s", args, err, out)
		}
	}
	if out, err := exec.Command(bin, "-in", missing).CombinedOutput(); err == nil || err.(*exec.ExitError).ExitCode() != 1 {
		t.Errorf("bdmtool on a missing file: %v, want exit 1\n%s", err, out)
	}
	cmd := exec.Command(bin, "-m", "2", "-r", "2", "-top", "1", "-plan", "pairrange")
	cmd.Stdin = strings.NewReader("id,title\na,foo bar\nb,foo baz\nc,qux\n")
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "entities=3 partitions=2 blocks=2 pairs=1") {
		t.Errorf("bdmtool on a small input: %v\n%s", err, out)
	}
}

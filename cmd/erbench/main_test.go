package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocationsExit2 builds erbench and checks that out-of-range
// flags are bad invocations: exit 2 with the usage hint, decided before
// any table runs or the input is read (the -in file does not exist,
// which would otherwise fail with exit 1).
func TestBadInvocationsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "erbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-0.5"}, {"-scale", "1.5"}, {"-scale", "NaN"},
		{"-figure", "7"}, {"-figure", "15"}, {"-figure", "-1"},
		{"-parallelism", "-1"}, {"-max-attempts", "-1"}, {"-task-timeout", "-1s"},
	} {
		out, err := exec.Command(bin, append([]string{"-in", missing}, args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "run 'erbench -h' for usage") {
			t.Errorf("erbench %v: %v, want exit 2 and the usage hint\n%s", args, err, out)
		}
	}
	if out, err := exec.Command(bin, "-in", missing, "-scale", "1", "-figure", "14").CombinedOutput(); err == nil || err.(*exec.ExitError).ExitCode() != 1 {
		t.Errorf("erbench on a missing -in file: %v, want exit 1\n%s", err, out)
	}
}

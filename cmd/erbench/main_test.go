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
// which would otherwise fail with exit 1). erbench executes no figure,
// so engine flags such as -exec and -faults are unknown: exit 2 too.
func TestBadInvocationsExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "erbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	missing := filepath.Join(t.TempDir(), "missing.csv")
	const hint, unknown = "run 'erbench -h' for usage", "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, hint}, {[]string{"-scale", "-0.5"}, hint},
		{[]string{"-scale", "1.5"}, hint}, {[]string{"-scale", "NaN"}, hint},
		{[]string{"-figure", "7"}, hint}, {[]string{"-figure", "15"}, hint}, {[]string{"-figure", "-1"}, hint},
		{[]string{"-exec"}, unknown}, {[]string{"-faults", "0.2"}, unknown},
	} {
		out, err := exec.Command(bin, append([]string{"-in", missing}, tc.args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("erbench %v: %v, want exit 2 and %q\n%s", tc.args, err, tc.want, out)
		}
	}
	if out, err := exec.Command(bin, "-in", missing, "-scale", "1", "-figure", "14").CombinedOutput(); err == nil || err.(*exec.ExitError).ExitCode() != 1 {
		t.Errorf("erbench on a missing -in file: %v, want exit 1\n%s", err, out)
	}
}

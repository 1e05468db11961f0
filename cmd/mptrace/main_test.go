package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself, on the arguments in MPTRACE_ARGS, when a
// test re-executes the test binary with that variable set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MPTRACE_ARGS"); ok {
		os.Args = append([]string{"mptrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveFlags holds every non-positive int flag to a
// one-line usage error (exit status 2) printed before any work, never a
// panic.
func TestRejectsNonPositiveFlags(t *testing.T) {
	for _, args := range []string{"-costs -top -1", "-costs -procs 0", "-regions -1", "-width 0"} {
		out, code := run(t, args)
		if code != 2 {
			t.Errorf("mptrace %s: exit status %d, want 2", args, code)
		}
		if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "mptrace: -") {
			t.Errorf("mptrace %s printed %q, want one usage line", args, out)
		}
	}
}

// run re-executes the test binary as mptrace on args and returns its
// combined output and exit status.
func run(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "MPTRACE_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCostsOnNonGridRegionCount runs the cost table on a region count the
// grid rounds up (65 → 80): every table is sized by the engine's regions.
func TestCostsOnNonGridRegionCount(t *testing.T) {
	out, code := run(t, "-costs -regions 65 -rounds 1")
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
	}
	if !strings.Contains(out, "8 procs, 80 regions") || !strings.Contains(out, "over 80 regions") {
		t.Fatalf("output does not report the engine's 80 regions:\n%s", out)
	}
}

// TestRejectsInvalidOptions holds a configuration the library refuses to
// one mptrace line and exit status 2, as for a bad flag.
func TestRejectsInvalidOptions(t *testing.T) {
	for _, args := range []string{"-procs 8 -regions 4", "-costs -procs 8 -regions 4"} {
		out, code := run(t, args)
		if code != 2 {
			t.Errorf("mptrace %s: exit status %d, want 2", args, code)
		}
		if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "mptrace: ") {
			t.Errorf("mptrace %s printed %q, want one error line", args, out)
		}
	}
}

// TestRejectsUnknownPolicy holds an unknown -policy to one mptrace line and
// exit status 2 in both modes: -costs runs under the named policy too.
func TestRejectsUnknownPolicy(t *testing.T) {
	for _, args := range []string{"-policy bogus", "-costs -policy bogus -rounds 1"} {
		out, code := run(t, args)
		if code != 2 {
			t.Errorf("mptrace %s: exit status %d, want 2", args, code)
		}
		if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "mptrace: ") {
			t.Errorf("mptrace %s printed %q, want one error line", args, out)
		}
	}
}

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
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MPTRACE_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("mptrace %s: err = %v, want exit status 2", args, err)
		}
		if lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "mptrace: -") {
			t.Errorf("mptrace %s printed %q, want one usage line", args, out)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself, on the arguments in ENVINFO_ARGS, when a
// test re-executes the test binary with that variable set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ENVINFO_ARGS"); ok {
		os.Args = append([]string{"envinfo"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveFlags holds every non-positive int flag to a
// one-line usage error (exit status 2) printed before any work, never a
// panic.
func TestRejectsNonPositiveFlags(t *testing.T) {
	for _, args := range []string{"-procs 0", "-procs -3", "-samples -1", "-regions 0"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "ENVINFO_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("envinfo %s: err = %v, want exit status 2", args, err)
		}
		if lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "envinfo: -") {
			t.Errorf("envinfo %s printed %q, want one usage line", args, out)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself, on the arguments in MPSOLVE_ARGS, when a
// test re-executes the test binary with that variable set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MPSOLVE_ARGS"); ok {
		os.Args = append([]string{"mpsolve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadSizes holds every negative size flag, and every Options
// value the library's Validate refuses, to one error line naming the field
// (exit status 2) printed before any planning, never a roadmap or a panic.
func TestRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-env walls -procs -1", "Procs"},
		{"-radius -1", "Radius"},
		{"-planner rrt -radius NaN", "Radius"},
		{"-regions 4 -procs 16", "Regions"},
		{"-samples -2", "SamplesPerRegion"},
		{"-rounds -2", "-rounds"},
		{"-portfolio -2", "-portfolio"},
		{"-max-waves -1", "-max-waves"},
		{"-shortcut -1", "-shortcut"},
		{"-mutate door -mutate-steps -1", "-mutate-steps"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MPSOLVE_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("mpsolve %s: err = %v, want exit status 2", tc.args, err)
		}
		if lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n"); len(lines) != 1 ||
			!strings.HasPrefix(lines[0], "mpsolve: ") || !strings.Contains(lines[0], tc.want) {
			t.Errorf("mpsolve %s printed %q, want one error line naming %s", tc.args, out, tc.want)
		}
	}
}

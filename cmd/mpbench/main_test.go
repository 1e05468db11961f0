package main

import (
	"errors"
	"testing"
)

// TestRunExperimentsRejectsBadFlags holds every bad flag value to a usage
// error (exit status 2) returned before any experiment runs.
func TestRunExperimentsRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name                        string
		exp, planner, scale, format string
	}{
		{"format", "fig4a", "", "quick", "xml"},
		{"scale", "fig4a", "", "huge", "text"},
		{"experiment", "fig99", "", "quick", "text"},
		{"planner", "planners", "rrt,prm", "quick", "text"},
		{"planner without planners", "fig4a", "rrt", "quick", "text"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runExperiments(c.exp, c.planner, c.scale, c.format)
			if !errors.As(err, &usageError{}) {
				t.Fatalf("runExperiments(%q, %q, %q, %q) = %v, want a usage error",
					c.exp, c.planner, c.scale, c.format, err)
			}
		})
	}
}

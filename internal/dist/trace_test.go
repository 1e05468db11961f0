package dist

import (
	"strings"
	"testing"

	"parmp/internal/sched"
	"parmp/internal/steal"
)

func TestTraceEventsEmitted(t *testing.T) {
	rows := [][]float64{{5, 5, 5, 5}, {}}
	var events []sched.TraceEvent
	cfg := sched.Config{
		Workers: 2, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1,
		Trace: func(e sched.TraceEvent) { events = append(events, e) },
	}
	Run(cfg, fixedTasks(rows))
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	kinds := map[string]int{}
	lastT := -1.0
	for _, e := range events {
		kinds[e.Kind]++
		if e.Time < lastT-1e-9 {
			t.Fatalf("trace not time-ordered: %v after %v", e.Time, lastT)
		}
		lastT = e.Time
	}
	if kinds["exec"] != 4 {
		t.Fatalf("exec events = %d, want 4", kinds["exec"])
	}
	if kinds["steal-req"] == 0 {
		t.Fatal("no steal requests traced")
	}
	if kinds["steal-grant"]+kinds["steal-deny"] == 0 {
		t.Fatal("no steal outcomes traced")
	}
}

func TestTraceNilSafe(t *testing.T) {
	rows := [][]float64{{1}}
	Run(sched.Config{Workers: 1, Profile: testProfile()}, fixedTasks(rows)) // no panic without Trace
}

func TestTimeline(t *testing.T) {
	rows := [][]float64{{10, 10}, {}}
	var events []sched.TraceEvent
	rep := Run(sched.Config{
		Workers: 2, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1,
		Trace: func(e sched.TraceEvent) { events = append(events, e) },
	}, fixedTasks(rows))
	lines := Timeline(events, rep, 40)
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "#") {
		t.Fatal("proc 0 should show execution")
	}
	for _, l := range lines {
		if !strings.Contains(l, "busy=") {
			t.Fatalf("line missing stats: %q", l)
		}
	}
	// Degenerate width clamps.
	if got := Timeline(events, rep, 0); len(got) != 2 {
		t.Fatal("zero width should still render")
	}
}

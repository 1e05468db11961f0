package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"parmp/internal/dist"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedStream is a deterministic trace covering every event kind.
func fixedStream() []sched.TraceEvent {
	return []sched.TraceEvent{
		{Time: 0, Kind: "exec", Proc: 0, Peer: -1, Task: 3, Dur: 10},
		{Time: 0, Kind: "steal-req", Proc: 1, Peer: 0, Task: -1},
		{Time: 5, Kind: "steal-deny", Proc: 1, Peer: 0, Task: -1},
		{Time: 6, Kind: "steal-req", Proc: 1, Peer: 0, Task: -1},
		{Time: 10, Kind: "exec", Proc: 0, Peer: -1, Task: 4, Dur: 2.5},
		{Time: 11, Kind: "steal-grant", Proc: 1, Peer: 0, Task: 5},
		{Time: 12, Kind: "exec", Proc: 1, Peer: -1, Task: 5, Dur: 4},
		{Time: 16, Kind: "retire", Proc: 1, Peer: -1, Task: -1},
		{Time: 16, Kind: "retire", Proc: 0, Peer: -1, Task: -1},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	ct := NewChromeTrace(ScaleVirtual)
	for _, e := range fixedStream() {
		ct.Event(e)
	}
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace diverged from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// decode parses a trace export back into the generic JSON shape Perfetto
// and chrome://tracing consume.
func decode(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("export has no traceEvents array: %v", doc)
	}
	return doc
}

func TestChromeTraceShape(t *testing.T) {
	ct := NewChromeTrace(2) // 2 microseconds per virtual unit
	for _, e := range fixedStream() {
		ct.Event(e)
	}
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, buf.Bytes())
	events := doc["traceEvents"].([]any)

	tracks := map[float64]bool{}
	execs, retires := 0, 0
	for _, raw := range events {
		e := raw.(map[string]any)
		switch e["ph"] {
		case "X":
			execs++
			tracks[e["tid"].(float64)] = true
			if e["dur"].(float64) <= 0 {
				t.Errorf("exec span without duration: %v", e)
			}
		case "i":
			if e["name"] == "retire" {
				retires++
			}
		case "M":
			// metadata
		default:
			t.Errorf("unexpected phase %q", e["ph"])
		}
	}
	if execs != 3 {
		t.Errorf("exec spans = %d, want 3", execs)
	}
	if retires != 2 {
		t.Errorf("retire instants = %d, want 2", retires)
	}
	if len(tracks) != 2 {
		t.Errorf("exec spans on %d tracks, want 2 (one per processor)", len(tracks))
	}
	// The scale applies to timestamps and durations alike.
	for _, raw := range events {
		e := raw.(map[string]any)
		if e["name"] == "task 5" {
			if got := e["ts"].(float64); got != 24 {
				t.Errorf("task 5 ts = %v, want 24 (12 units x scale 2)", got)
			}
			if got := e["dur"].(float64); got != 8 {
				t.Errorf("task 5 dur = %v, want 8 (4 units x scale 2)", got)
			}
		}
	}
}

// TestChromeTraceFromSimulator drives a real simulated run through the
// exporter end to end: the output must be valid trace_event JSON with one
// named track per processor that did anything.
func TestChromeTraceFromSimulator(t *testing.T) {
	const workers = 4
	queues := make([][]work.Task, workers)
	for i := 0; i < 12; i++ {
		i := i
		queues[0] = append(queues[0], work.Task{
			ID:  i,
			Run: func() float64 { return float64(2 + i%3) },
		})
	}
	ct := NewChromeTrace(ScaleVirtual)
	dist.Run(sched.Config{
		Workers: workers,
		Profile: work.Hopper(),
		Policy:  steal.RandK{K: 2},
		Seed:    9,
		Trace:   ct.Event,
	}, queues)
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, buf.Bytes())
	names := 0
	for _, raw := range doc["traceEvents"].([]any) {
		e := raw.(map[string]any)
		if e["ph"] == "M" && e["name"] == "thread_name" {
			names++
		}
	}
	if names != workers {
		t.Errorf("thread_name metadata for %d procs, want %d", names, workers)
	}
}

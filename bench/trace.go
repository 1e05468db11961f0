package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program under test is instrumented).
// Spans of one operation — a round, a race, a query — share Op; Parent is
// the index of the enclosing span, -1 at the top.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration
}

// tracer keeps spans in memory until the workload ends. Only the traced
// run builds one: the untraced run never reaches any of this.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name. Self is duration minus the
// part covered by child spans (children of one span never overlap here:
// the harness opens them one after another on the parent's goroutine).
type layerStat struct {
	Count       int
	Total, Self time.Duration
}

func (s layerStat) meanMS() float64     { return s.mean(s.Total) / 1e6 }
func (s layerStat) meanUS() float64     { return s.mean(s.Total) / 1e3 }
func (s layerStat) selfMeanMS() float64 { return s.mean(s.Self) / 1e6 }
func (s layerStat) selfMeanUS() float64 { return s.mean(s.Self) / 1e3 }

func (s layerStat) mean(d time.Duration) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(s.Count)
}

// childTime is, per span, the time its finished child spans cover.
func (t *tracer) childTime() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// layers folds the finished spans into per-name totals and self times.
func (t *tracer) layers() map[string]layerStat {
	child := t.childTime()
	out := map[string]layerStat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// maxPartsError is the largest share by which any parent span's children
// overrun it — the "parts sum back to the parent" check. Children are
// timed inside their parent, so anything above clock jitter means the
// harness nested spans wrongly.
func (t *tracer) maxPartsError() float64 {
	child := t.childTime()
	worst := 0.0
	for i, s := range t.spans {
		d := s.End - s.Start
		if s.End < 0 || d <= 0 || child[i] <= d {
			continue
		}
		if e := float64(child[i]-d) / float64(d); e > worst {
			worst = e
		}
	}
	return worst
}

// traceFile is the Chrome trace_event container plus the harness's own
// per-layer table, so one file answers both "where on the timeline" and
// "how much per layer".
type traceFile struct {
	TraceEvents     []traceEvent       `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	Workload        string             `json:"workload"`
	Seed            uint64             `json:"seed"`
	Layers          []layerRow         `json:"layers"`
	Metrics         map[string]float64 `json:"metrics"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) write(path, workload string, seed uint64, metrics map[string]float64) error {
	f := traceFile{DisplayTimeUnit: "ms", Workload: workload, Seed: seed, Metrics: metrics}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	ls := t.layers()
	for name, st := range ls {
		f.Layers = append(f.Layers, layerRow{
			Name: name, Count: st.Count,
			TotalMS: float64(st.Total.Nanoseconds()) / 1e6,
			SelfMS:  float64(st.Self.Nanoseconds()) / 1e6,
		})
	}
	sort.Slice(f.Layers, func(i, j int) bool { return f.Layers[i].Name < f.Layers[j].Name })
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

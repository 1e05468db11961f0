package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec mirrors /BENCHMARK.json. The harness reads it at start-up so
// the metric names, units, directions and regression bounds have one
// home: a value the harness produces under a name the file does not
// list, or an end-to-end name the harness does not produce, is an error.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory (run.sh starts
// the program in the repository root) or its parent (go test, which runs
// in bench/).
func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project lays measured values over the declared metric list: every
// declared name appears in the output. A per-layer metric the workload
// does not exercise reads 0 (the layer did no work), and so does what a
// failed run did not get to; a missing end-to-end metric of a correct
// run, or a value under an undeclared name, is a harness bug and reported
// as such.
func project(declared []metricSpec, got map[string]float64, allowMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok && !allowMissing {
			return nil, fmt.Errorf("metric %q declared in BENCHMARK.json but not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

package servebench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestComputePercentiles(t *testing.T) {
	if p := Compute(nil); p.P99 != 0 || p.Max != 0 {
		t.Fatal("empty input must yield zeros")
	}
	us := make([]float64, 1000)
	for i := range us {
		us[i] = float64(999 - i) // reversed: Compute must sort
	}
	p := Compute(us)
	if p.P50 != 499 || p.P99 != 989 || p.P999 != 998 || p.Max != 999 {
		t.Fatalf("percentiles = %+v", p)
	}
	if us[0] != 0 {
		t.Fatal("Compute must sort its input")
	}
}

func TestGateCheck(t *testing.T) {
	base := Result{Latency: Percentiles{P99: 1000}}
	ok := Result{Queries: 10000, Errors: 5, ErrorRate: 0.0005, Latency: Percentiles{P99: 1200}}
	g := Gate{MaxErrorRate: 0.001, MaxRegress: 0.5}
	if err := g.Check(ok, &base); err != nil {
		t.Fatalf("passing run failed the gate: %v", err)
	}

	slow := ok
	slow.Latency.P99 = 1600
	if err := g.Check(slow, &base); err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("p99 regression not caught: %v", err)
	}

	errored := ok
	errored.Errors, errored.ErrorRate = 100, 0.01
	if err := g.Check(errored, &base); err == nil || !strings.Contains(err.Error(), "error rate") {
		t.Fatalf("error-rate violation not caught: %v", err)
	}

	// Both violations reported together, under the gate's heading.
	both := slow
	both.Errors, both.ErrorRate = 100, 0.01
	if err := g.Check(both, &base); err == nil || !strings.HasPrefix(err.Error(), "serve gate:") ||
		!strings.Contains(err.Error(), "p99") || !strings.Contains(err.Error(), "error rate") {
		t.Fatalf("combined violations not fully reported: %v", err)
	}

	// No baseline: only the error gate applies.
	if err := g.Check(slow, nil); err != nil {
		t.Fatalf("baseline-less run must skip the p99 gate: %v", err)
	}
	// Disabled gates pass everything.
	if err := (Gate{MaxErrorRate: -1, MaxRegress: -1}).Check(both, &base); err != nil {
		t.Fatalf("disabled gate rejected a run: %v", err)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	in := Result{
		Source: "mploadgen", Env: "med-cube", Mode: "closed", Workers: 8,
		Queries: 12345, Solved: 12000, Errors: 3, ErrorRate: 3.0 / 12345,
		DurationSec: 1.5, Throughput: 8230,
		Latency:      Percentiles{P50: 100, P90: 200, P99: 400, P999: 900, Max: 1500},
		Serve:        &Percentiles{P50: 80, P99: 300},
		CacheHit:     &Percentiles{P50: 4, P99: 20},
		CacheHitRate: 0.42,
	}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		// Pointer fields break direct comparison; compare piecewise.
		if out.Source != in.Source || out.Latency != in.Latency ||
			out.Serve == nil || *out.Serve != *in.Serve ||
			out.CacheHit == nil || *out.CacheHit != *in.CacheHit ||
			out.Queries != in.Queries || out.CacheHitRate != in.CacheHitRate {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
	}
}

func TestWriteLoadRejectsMissingAndMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := WriteFile(path, Result{Source: "mploadgen", Queries: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("well-formed file: %v", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := os.WriteFile(path, []byte(`{"queries": "many"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("malformed file: err = %v, want one naming the path", err)
	}
}

func TestCheckKinds(t *testing.T) {
	gate := Gate{MaxErrorRate: 0.5, MaxRegress: 0.10}
	hundred := Result{Latency: Percentiles{P99: 100}}
	cases := []struct {
		name      string
		errorRate float64
		p99       float64
		baseline  Result
		bad       string // substring naming the violation, "" when none
	}{
		{"at ceiling", 0.5, 100, hundred, ""},
		{"over ceiling", 0.51, 100, hundred, "error rate"},
		{"inside regress", 0, 109, hundred, ""},
		{"past regress", 0, 111, hundred, "p99"},
		{"regress without reference", 0, 111, Result{}, ""},
	}
	for _, c := range cases {
		r := Result{ErrorRate: c.errorRate, Latency: Percentiles{P99: c.p99}}
		err := gate.Check(r, &c.baseline)
		if (err != nil) != (c.bad != "") || (err != nil && !strings.Contains(err.Error(), c.bad)) {
			t.Errorf("%s: err = %v, want violation %q", c.name, err, c.bad)
		}
	}
	// Every violation is reported, not just the first, under the heading.
	err := gate.Check(Result{ErrorRate: 0.51, Latency: Percentiles{P99: 111}}, &hundred)
	if err == nil {
		t.Fatal("run with two violations passed")
	}
	if !strings.HasPrefix(err.Error(), "serve gate:") ||
		!strings.Contains(err.Error(), "error rate") || !strings.Contains(err.Error(), "p99") {
		t.Errorf("violations not all reported under the gate's heading: %v", err)
	}
	if err := (Gate{MaxErrorRate: -1, MaxRegress: -1}).Check(Result{ErrorRate: 1, Latency: Percentiles{P99: 1e9}}, &hundred); err != nil {
		t.Errorf("gate with no limits failed: %v", err)
	}
}

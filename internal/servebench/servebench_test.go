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

	// Both violations reported together.
	both := slow
	both.Errors, both.ErrorRate = 100, 0.01
	if err := g.Check(both, &base); err == nil ||
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
	cases := []struct {
		l   limit
		bad bool
	}{
		{limit{"at ceiling", 50, 50, ceiling, 0}, false},
		{limit{"over ceiling", 51, 50, ceiling, 0}, true},
		{limit{"inside regress", 109, 100, regress, 0.10}, false},
		{limit{"past regress", 111, 100, regress, 0.10}, true},
		{limit{"regress without reference", 111, 0, regress, 0.10}, false},
	}
	var all []limit
	for _, c := range cases {
		all = append(all, c.l)
		if err := check("gate", []limit{c.l}); (err != nil) != c.bad {
			t.Errorf("%s: err = %v, want violation %v", c.l.name, err, c.bad)
		}
	}
	// Every violation is reported, not just the first.
	err := check("gate", all)
	if err == nil {
		t.Fatal("table with violations passed")
	}
	for _, c := range cases {
		if got := strings.Contains(err.Error(), c.l.name+" "); got != c.bad {
			t.Errorf("%s: reported %v, want %v\n%v", c.l.name, got, c.bad, err)
		}
	}
	if !strings.HasPrefix(err.Error(), "gate:") {
		t.Errorf("error not headed by the gate's name: %v", err)
	}
	if err := check("gate", nil); err != nil {
		t.Errorf("empty table failed: %v", err)
	}
}

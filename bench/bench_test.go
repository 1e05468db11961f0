package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"

	"parmp"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
)

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty input must yield NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: p99 = %v, want 7", got)
	}
	// n < 10: p90 interpolates between the two largest, never past them.
	five := []float64{5, 1, 4, 2, 3}
	if got := quantile(five, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile(five, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 of 1..5 = %v, want 4.6", got)
	}
	if got := quantile(five, 1); got != 5 {
		t.Errorf("p100 of 1..5 = %v, want 5", got)
	}
	if got := quantile(five, 0); got != 1 {
		t.Errorf("p0 of 1..5 = %v, want 1", got)
	}
	if five[0] != 5 {
		t.Error("quantile must not reorder its input")
	}
	// Ties: every quantile of a constant sample is that constant, and a
	// run of equal values in the middle is returned exactly.
	if got := quantile([]float64{2, 2, 2, 2}, 0.9); got != 2 {
		t.Errorf("p90 of constant sample = %v, want 2", got)
	}
	if got := quantile([]float64{1, 3, 3, 3, 9}, 0.5); got != 3 {
		t.Errorf("median with ties = %v, want 3", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
}

func TestWorseBy(t *testing.T) {
	if d := worseBy(100, 110, "lower"); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("lower-is-better, 100 -> 110: %v, want 0.10", d)
	}
	if d := worseBy(100, 90, "higher"); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("higher-is-better, 100 -> 90: %v, want 0.10", d)
	}
	if d := worseBy(100, 90, "lower"); d >= 0 {
		t.Errorf("an improvement must not read as a regression: %v", d)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("parent", -1, 0)
	child := tr.begin("child", parent, 0)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	time.Sleep(2 * time.Millisecond)
	tr.end(parent)
	open := tr.begin("never-ended", -1, 1)
	_ = open
	ls := tr.layers()
	p, c := ls["parent"], ls["child"]
	if p.Count != 1 || c.Count != 1 {
		t.Fatalf("counts: parent %d child %d", p.Count, c.Count)
	}
	if p.Self != p.Total-c.Total {
		t.Errorf("parent self %v != total %v - child %v", p.Self, p.Total, c.Total)
	}
	if c.Self != c.Total || c.Total < 2*time.Millisecond {
		t.Errorf("leaf child: self %v total %v", c.Self, c.Total)
	}
	if _, ok := ls["never-ended"]; ok {
		t.Error("an unfinished span must not be aggregated")
	}
	if e := tr.maxPartsError(); e != 0 {
		t.Errorf("children nested inside their parent overran it by %v", e)
	}
}

// inputFingerprint serialises everything the workloads derive from a
// seed: engine seeds per cycle, query pairs and batches, the hot request
// schedule.
func inputFingerprint(seed uint64) []byte {
	space := cspace.NewPointSpace(env.ByName("med-cube"))
	type inputs struct {
		Engines []uint64
		Query   queryInputs
		Hot     []uint8
	}
	in := inputs{Query: makeQueryInputs(space, seed, 50, 2), Hot: hotSchedule(seed, 256)}
	for _, salt := range []uint64{saltEngine, saltWarm} {
		for i := 0; i < 8; i++ {
			in.Engines = append(in.Engines, derivedSeed(seed, salt, i))
		}
	}
	b, err := json.Marshal(in)
	if err != nil {
		panic(err)
	}
	return b
}

func TestScheduleDeterminism(t *testing.T) {
	a, b, c := inputFingerprint(7), inputFingerprint(7), inputFingerprint(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed must give byte-identical inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds must give different inputs")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		s := derivedSeed(7, saltEngine, i)
		if seen[s] {
			t.Fatalf("engine seed %d repeats", i)
		}
		seen[s] = true
	}
}

// TestTwinParity is the premise of the traced run: the public engine and
// the core engine the harness drives layer by layer, built from the same
// options, commit the same roadmap round by round.
func TestTwinParity(t *testing.T) {
	w := newGrowWorkload(scales["smoke"], true)
	w.seed = 3
	opts := w.engineOpts(saltEngine, 0)
	space, _, _ := w.newWorld()
	pub, err := parmp.NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	twinSpace, _, _ := w.newWorld()
	opts.Runtime = &timedRuntime{tr: newTracer()}
	twin, err := core.NewPRMEngine(twinSpace, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := pub.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := twin.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
		pn, tn := pub.Snapshot().NumNodes(), twin.Result().Roadmap.NumNodes()
		if pn != tn || pn == 0 {
			t.Fatalf("round %d: public engine has %d nodes, twin %d", r, pn, tn)
		}
		if pv, tv := pub.Snapshot().PRM().TotalTime, twin.Result().TotalTime; pv != tv {
			t.Fatalf("round %d: virtual time public %v, twin %v", r, pv, tv)
		}
	}
}

// TestSmokeAllWorkloads runs the whole harness — untraced and traced —
// at smoke scale, so tier-1 exercises every workload, the oracle, the
// twins and the output contract on every change.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sc := scales["smoke"]
	start := time.Now()
	for _, name := range spec.workloadNames() {
		ctor := workloadCtors[name]
		if ctor == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the harness has none", name)
		}
		un := runUntraced(name, ctor(sc), 1, 0, sc)
		if !un.Correct {
			t.Errorf("%s untraced: %d of %d failed: %v", name, un.Failed, un.Attempted, un.Notes)
		}
		got, err := project(spec.EndToEnd, un.Metrics, false)
		if err != nil {
			t.Errorf("%s untraced: %v", name, err)
		}
		for n, v := range got {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, n, v.Value)
			}
		}
		tr := runTraced(name, ctor(sc), 1, sc, "")
		if !tr.Correct {
			t.Errorf("%s traced: %d of %d failed: %v", name, tr.Failed, tr.Attempted, tr.Notes)
		}
		if _, err := project(spec.PerLayer, tr.Metrics, true); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
		if _, ok := tr.Metrics["bench.trace_overhead_frac"]; !ok {
			t.Errorf("%s traced: bench.trace_overhead_frac not reported", name)
		}
		for k, v := range un.Exact {
			if tv, ok := tr.Exact[k]; ok && tv != v {
				t.Errorf("%s: exact.%s untraced %v, traced %v", name, k, v, tv)
			}
		}
	}
	t.Logf("smoke pass of %d workloads, untraced and traced: %v", len(spec.Workloads), time.Since(start))
}

// TestBenchmarkSpec holds BENCHMARK.json to the limits its consumer
// enforces, so a bad edit fails here and not in a benchmark run.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(spec.Workloads))
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s with unit s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
	if len(spec.Workloads) != len(workloadCtors) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadCtors))
	}
}

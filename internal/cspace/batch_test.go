package cspace

import (
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// batchCase binds a space (and its robot) to the sampling ranges the
// parity sweeps draw from.
type batchCase struct {
	name string
	s    *Space
}

func batchCases() []batchCase {
	return []batchCase{
		{"point/mixed-30", NewPointSpace(env.Mixed30())},
		{"point/med-cube", NewPointSpace(env.MedCube())},
		{"rigid/med-cube", NewRigidBodySpace(env.MedCube(), NewRigidBox(0.03, 0.02, 0.01))},
		{"linkage/maze-2d", NewLinkageSpace(env.Maze2D(4, 0.2), Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1, 0.08, 0.06}})},
		{"se2/maze-2d", NewSE2Space(env.Maze2D(4, 0.2), NewRigidRect(0.04, 0.02))},
		{"dubins/maze-2d", NewDubinsSpace(env.Maze2D(4, 0.2), 0.1)},
	}
}

// randomConfigIn draws a uniform configuration in s.Bounds, overshooting
// slightly on positional dimensions so bounds rejections are exercised.
func randomConfigIn(s *Space, r *rng.Stream, overshoot float64) Config {
	q := make(Config, s.Dim())
	for k := range q {
		q[k] = r.Range(s.Bounds.Lo[k]-overshoot, s.Bounds.Hi[k]+overshoot)
	}
	return q
}

func checkConfigBatchParity(t *testing.T, name string, s *Space, cfgs []Config, bt *Batch) {
	t.Helper()
	bt.Reset(s.Dim())
	for _, q := range cfgs {
		bt.Append(q)
	}
	gotFree, gotTests := s.Robot.ConfigFreeBatch(s.Env, bt)
	var sc Scratch
	wantFree := true
	wantTests := 0
	for _, q := range cfgs {
		free, tests := s.Robot.ConfigFree(s.Env, q, &sc)
		wantTests += tests
		if !free {
			wantFree = false
			break
		}
	}
	if gotFree != wantFree {
		t.Fatalf("%s: ConfigFreeBatch=%v, scalar=%v (batch of %d)", name, gotFree, wantFree, len(cfgs))
	}
	if wantFree && gotTests != wantTests {
		t.Fatalf("%s: all-free batch counted %d tests, scalar sum %d", name, gotTests, wantTests)
	}
}

func checkEdgeBatchParity(t *testing.T, name string, s *Space, as, bs []Config, bt *Batch) {
	t.Helper()
	bt.Reset(s.Dim())
	for i := range as {
		bt.AppendEdge(as[i], bs[i])
	}
	gotFree, gotTests := s.Robot.EdgeFreeBatch(s.Env, bt)
	var sc Scratch
	wantFree := true
	wantTests := 0
	for i := range as {
		free, tests := s.Robot.EdgeFree(s.Env, as[i], bs[i], &sc)
		wantTests += tests
		if !free {
			wantFree = false
			break
		}
	}
	if gotFree != wantFree {
		t.Fatalf("%s: EdgeFreeBatch=%v, scalar=%v (batch of %d)", name, gotFree, wantFree, len(as))
	}
	if wantFree && gotTests != wantTests {
		t.Fatalf("%s: all-free batch counted %d tests, scalar sum %d", name, gotTests, wantTests)
	}
}

// TestConfigFreeBatchParity sweeps random batches through every robot
// type: outcomes must match the scalar kernels exactly, and all-free
// batches must count exactly the scalar test totals.
func TestConfigFreeBatchParity(t *testing.T) {
	for _, tc := range batchCases() {
		r := rng.New(97)
		var bt Batch
		for trial := 0; trial < 120; trial++ {
			n := 1 + r.Intn(13)
			cfgs := make([]Config, n)
			for i := range cfgs {
				cfgs[i] = randomConfigIn(tc.s, r, 0.05)
			}
			checkConfigBatchParity(t, tc.name, tc.s, cfgs, &bt)
		}
	}
}

// TestEdgeFreeBatchParity does the same for the edge-sweep kernels.
func TestEdgeFreeBatchParity(t *testing.T) {
	for _, tc := range batchCases() {
		r := rng.New(131)
		var bt Batch
		for trial := 0; trial < 120; trial++ {
			n := 1 + r.Intn(13)
			as := make([]Config, n)
			bs := make([]Config, n)
			for i := range as {
				as[i] = randomConfigIn(tc.s, r, 0)
				b := as[i].Clone()
				for k := range b {
					b[k] += r.Range(-0.03, 0.03)
				}
				bs[i] = b
			}
			checkEdgeBatchParity(t, tc.name, tc.s, as, bs, &bt)
		}
	}
}

// TestLocalPlanBatchParity compares the batched local planner against
// the scalar fail-fast one: identical outcomes always, identical
// counters on accepted edges.
func TestLocalPlanBatchParity(t *testing.T) {
	for _, tc := range batchCases() {
		r := rng.New(211)
		var bt Batch
		var sc Scratch
		for trial := 0; trial < 80; trial++ {
			a := randomConfigIn(tc.s, r, 0)
			b := randomConfigIn(tc.s, r, 0)
			var cb, cs Counters
			gotOK := tc.s.LocalPlanBatch(a, b, &bt, &cb)
			wantOK := tc.s.LocalPlanS(a, b, &sc, &cs)
			if gotOK != wantOK {
				t.Fatalf("%s trial %d: LocalPlanBatch=%v, LocalPlanS=%v", tc.name, trial, gotOK, wantOK)
			}
			if gotOK && cb != cs {
				t.Fatalf("%s trial %d: accepted-edge counters differ: batch %+v, scalar %+v", tc.name, trial, cb, cs)
			}
		}
	}
}

// TestLocalPlanBatchSteadyStateAllocs confirms the batched planner
// allocates nothing once its columns are warm.
func TestLocalPlanBatchSteadyStateAllocs(t *testing.T) {
	s := NewPointSpace(env.MedCube())
	a := geom.V(0.05, 0.05, 0.05)
	b := geom.V(0.1, 0.9, 0.1)
	var bt Batch
	var c Counters
	if !s.LocalPlanBatch(a, b, &bt, &c) {
		t.Fatal("warmup local plan rejected a free edge")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.LocalPlanBatch(a, b, &bt, &c)
	})
	if allocs != 0 {
		t.Fatalf("steady-state LocalPlanBatch allocates %v per op, want 0", allocs)
	}
}

// TestLocalPlanBatchFallbacks: steered spaces route to LocalPlan,
// preserving outcomes.
func TestLocalPlanBatchFallbacks(t *testing.T) {
	s := NewDubinsSpace(env.Maze2D(4, 0.2), 0.1)
	a := geom.V(0.1, 0.1, 0)
	b := geom.V(0.3, 0.12, 0.2)
	var bt Batch
	if got, want := s.LocalPlanBatch(a, b, &bt, nil), s.LocalPlan(a, b, nil); got != want {
		t.Fatalf("steered fallback: batch=%v, plain=%v", got, want)
	}
}

func fuzzSpace(sel byte) batchCase {
	cases := batchCases()
	return cases[int(sel)%len(cases)]
}

// FuzzConfigFreeBatchParity fuzzes batch-vs-scalar parity of the
// configuration kernels over every robot type.
func FuzzConfigFreeBatchParity(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(7))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel, size uint8) {
		tc := fuzzSpace(sel)
		r := rng.New(seed)
		n := 1 + int(size)%16
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = randomConfigIn(tc.s, r, 0.05)
		}
		var bt Batch
		checkConfigBatchParity(t, tc.name, tc.s, cfgs, &bt)
	})
}

// FuzzEdgeFreeBatchParity fuzzes batch-vs-scalar parity of the edge
// kernels over every robot type.
func FuzzEdgeFreeBatchParity(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(5))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel, size uint8) {
		tc := fuzzSpace(sel)
		r := rng.New(seed)
		n := 1 + int(size)%16
		as := make([]Config, n)
		bs := make([]Config, n)
		for i := range as {
			as[i] = randomConfigIn(tc.s, r, 0)
			b := as[i].Clone()
			for k := range b {
				b[k] += r.Range(-0.03, 0.03)
			}
			bs[i] = b
		}
		var bt Batch
		checkEdgeBatchParity(t, tc.name, tc.s, as, bs, &bt)
	})
}

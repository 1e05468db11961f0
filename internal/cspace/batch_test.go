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

// randomWalk draws a path of n configurations: a start drawn with
// randomConfigIn's overshoot, so some starts are out of bounds, then
// steps of up to 0.03 on every coordinate — a walk, not a lerp.
func randomWalk(s *Space, r *rng.Stream, n int) []Config {
	path := []Config{randomConfigIn(s, r, 0.05)}
	for len(path) < n {
		q := path[len(path)-1].Clone()
		for k := range q {
			q[k] += r.Range(-0.03, 0.03)
		}
		path = append(path, q)
	}
	return path
}

// randomJumps draws a path of n independent configurations, each with
// randomConfigIn's overshoot, so collisions and bounds rejections fall
// anywhere along the path, not only near its start.
func randomJumps(s *Space, r *rng.Stream, n int) []Config {
	path := make([]Config, n)
	for i := range path {
		path[i] = randomConfigIn(s, r, 0.05)
	}
	return path
}

// checkPathBatchParity runs path through PathFreeBatch and through the
// scalar march it must reproduce: ConfigFree on configurations 1..n-1,
// then EdgeFree on every step. The verdicts must agree, and on a free
// path so must the test counts. The start is never checked, so its own
// verdict moves neither side; it reports whether the start was one
// ConfigFree rejects on a path the batch accepted.
func checkPathBatchParity(t *testing.T, name string, s *Space, path []Config, bt *Batch) (skippedStart bool) {
	t.Helper()
	bt.Reset(s.Dim())
	for _, q := range path {
		bt.AppendLerp(q, q, 0) // q itself
	}
	gotFree, gotTests := s.Robot.PathFreeBatch(s.Env, bt)
	var sc Scratch
	wantFree, wantTests := true, 0
	for _, q := range path[1:] {
		free, tests := s.Robot.ConfigFree(s.Env, q, &sc)
		wantTests += tests
		wantFree = wantFree && free
	}
	for i := 1; i < len(path); i++ {
		free, tests := s.Robot.EdgeFree(s.Env, path[i-1], path[i], &sc)
		wantTests += tests
		wantFree = wantFree && free
	}
	if gotFree != wantFree {
		t.Fatalf("%s: PathFreeBatch=%v, scalar march=%v (path of %d)", name, gotFree, wantFree, len(path))
	}
	if wantFree && gotTests != wantTests {
		t.Fatalf("%s: free path counted %d tests, scalar sum %d", name, gotTests, wantTests)
	}
	startFree, _ := s.Robot.ConfigFree(s.Env, path[0], &sc)
	return gotFree && !startFree
}

// TestPathFreeBatchParity sweeps random short walks through every robot
// type: verdicts must match the scalar march exactly, free paths must
// count exactly its tests, and a start that ConfigFree rejects is
// neither checked nor counted.
func TestPathFreeBatchParity(t *testing.T) {
	skipped := 0
	for _, tc := range batchCases() {
		r := rng.New(97)
		var bt Batch
		for trial := 0; trial < 300; trial++ {
			if checkPathBatchParity(t, tc.name, tc.s, randomWalk(tc.s, r, 2+r.Intn(14)), &bt) {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no free path started at a configuration ConfigFree rejects")
	}
}

// TestPathFreeBatchJumpParity holds the path kernels to the scalar march
// on paths of independent configurations drawn across every robot's
// space.
func TestPathFreeBatchJumpParity(t *testing.T) {
	for _, tc := range batchCases() {
		r := rng.New(131)
		var bt Batch
		for trial := 0; trial < 120; trial++ {
			checkPathBatchParity(t, tc.name, tc.s, randomJumps(tc.s, r, 1+r.Intn(13)), &bt)
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
// allocates nothing once its columns are warm, on a free edge of every
// unsteered robot.
func TestLocalPlanBatchSteadyStateAllocs(t *testing.T) {
	for _, tc := range batchCases() {
		s := tc.s
		if s.Steer != nil {
			continue
		}
		r := rng.New(5)
		var bt Batch
		var c Counters
		var a, b Config
		for {
			a = randomConfigIn(s, r, 0)
			b = a.Clone()
			for k := range b {
				b[k] += r.Range(-0.1, 0.1)
			}
			if s.Valid(a, nil) && s.Valid(b, nil) && s.LocalPlanBatch(a, b, &bt, &c) {
				break
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			s.LocalPlanBatch(a, b, &bt, &c)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state LocalPlanBatch allocates %v per op, want 0", tc.name, allocs)
		}
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

// fuzzPathParity fuzzes path-vs-scalar-march parity of the path kernels
// over every robot type, on paths of 1..16 configurations drawn by draw;
// every space is seeded once, with paths of size%16+1 configurations.
func fuzzPathParity(f *testing.F, size uint8, draw func(*Space, *rng.Stream, int) []Config) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), size)
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel, size uint8) {
		tc := fuzzSpace(sel)
		r := rng.New(seed)
		var bt Batch
		checkPathBatchParity(t, tc.name, tc.s, draw(tc.s, r, 1+int(size)%16), &bt)
	})
}

// FuzzPathFreeBatchParity fuzzes parity on random short walks.
func FuzzPathFreeBatchParity(f *testing.F) { fuzzPathParity(f, 5, randomWalk) }

// FuzzPathFreeBatchJumpParity fuzzes parity on paths of independent
// configurations.
func FuzzPathFreeBatchJumpParity(f *testing.F) { fuzzPathParity(f, 7, randomJumps) }

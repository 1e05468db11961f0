package cspace

import (
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// pinnedCounts is what one robot's kernels did on the fixed-seed inputs
// of TestKernelCountsPinned.
type pinnedCounts struct {
	validFree, validTests int // 1 000 Valid calls
	edgeFree, edgeTests   int // 1 000 one-step edge sweeps
	// Accepted edges and full counters of 200 local plans per order.
	seqOK, bisectOK, batchOK int
	seq, bisect, batch       Counters
}

// pinnedSpaces is one space per robot, cluttered enough that free and
// colliding configurations both occur.
func pinnedSpaces() []batchCase {
	return []batchCase{
		{"point", NewPointSpace(env.MedCube())},
		{"rigidbody", NewRigidBodySpace(env.MedCube(), NewRigidBox(0.05, 0.04, 0.03))},
		{"linkage", NewLinkageSpace(env.Maze2D(4, 0.2),
			Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.15, 0.12, 0.1, 0.08}})},
		{"se2", NewSE2Space(env.Maze2D(3, 0.25), NewRigidRect(0.06, 0.03))},
		{"dubins", NewDubinsSpace(env.Maze2D(4, 0.2), 0.1)},
	}
}

// pinnedWant was read at the parent of the one-scalar-kernel change
// (three kernels per robot, this test calling the allocating ones) and
// must not move: the Counters are what the simulator charges a task, so
// a kernel refactor that shifts any number here has changed the
// reproduction's load, not just its code.
var pinnedWant = map[string]pinnedCounts{
	"point": {762, 1000, 759, 1000, 85, 85, 85,
		lp(1511, 2907), lp(1113, 2007), lp(4065, 2405)},
	"rigidbody": {302, 6997, 582, 6286, 25, 25, 25,
		lp(619, 12129), lp(525, 8554), lp(5216, 8104)},
	"linkage": {89, 19326, 91, 29390, 6, 6, 6,
		lp(326, 19265), lp(295, 11222), lp(10877, 89847)},
	"se2": {487, 15184, 708, 10203, 50, 50, 50,
		lp(1192, 38619), lp(705, 19812), lp(5414, 26480)},
	// Steered: the bisection and batch orders fall back to the sequential one.
	"dubins": {894, 3860, 877, 3796, 7, 7, 7,
		lp(2699, 20442), lp(2699, 20442), lp(2699, 20442)},
}

// lp is the Counters of 200 local plans that took steps resolution steps
// (one validity check each) and obst obstacle tests.
func lp(steps, obst int64) Counters {
	return Counters{CDCalls: steps, CDObstacle: obst, LPSteps: steps, LPCalls: 200}
}

func measurePinned(s *Space) pinnedCounts {
	var got pinnedCounts
	var sc Scratch
	var bt Batch
	r := rng.New(421)
	for i := 0; i < 1000; i++ {
		var c Counters
		if s.Valid(s.SampleIn(s.Bounds, r, nil), &c) {
			got.validFree++
		}
		got.validTests += int(c.CDObstacle)
	}
	for i := 0; i < 1000; i++ {
		a := s.SampleIn(s.Bounds, r, nil)
		b := a.Clone()
		for k := range b {
			b[k] += (r.Float64() - 0.5) * 0.05
		}
		free, tests := s.Robot.EdgeFree(s.Env, a, b, &sc)
		if free {
			got.edgeFree++
		}
		got.edgeTests += tests
	}
	for i := 0; i < 200; i++ {
		a := s.SampleIn(s.Bounds, r, nil)
		b := s.SampleIn(s.Bounds, r, nil)
		if i%2 == 0 {
			b = a.Lerp(b, 0.1) // half the edges short, so some are accepted
		}
		if s.LocalPlan(a, b, &got.seq) {
			got.seqOK++
		}
		if s.LocalPlanS(a, b, &sc, &got.bisect) {
			got.bisectOK++
		}
		if s.LocalPlanBatch(a, b, &bt, &got.batch) {
			got.batchOK++
		}
	}
	return got
}

// TestKernelCountsPinned pins, per robot, the verdicts and obstacle-test
// counts of the scalar kernels and the full Counters of the three
// local-plan orders on a fixed seed. The three orders agree on every
// verdict; their totals differ only through rejected edges.
func TestKernelCountsPinned(t *testing.T) {
	for _, tc := range pinnedSpaces() {
		got := measurePinned(tc.s)
		if got.seqOK != got.bisectOK || got.seqOK != got.batchOK {
			t.Errorf("%s: local-plan orders disagree on verdicts: %d / %d / %d accepted",
				tc.name, got.seqOK, got.bisectOK, got.batchOK)
		}
		if got.seqOK == 0 || got.seqOK == 200 {
			t.Errorf("%s: degenerate edge mix: %d of 200 accepted", tc.name, got.seqOK)
		}
		if want := pinnedWant[tc.name]; got != want {
			t.Errorf("%s: counts moved\n got  %+v\n want %+v", tc.name, got, want)
		}
	}
}

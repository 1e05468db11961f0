package cspace

import (
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// scratchSpaces enumerates one space per robot whose kernels write
// temporaries through the scratch, each in an environment with enough
// clutter that both free and colliding configurations occur.
func scratchSpaces() map[string]*Space {
	return map[string]*Space{
		"rigidbody": NewRigidBodySpace(env.MedCube(), NewRigidBox(0.05, 0.04, 0.03)),
		"linkage": NewLinkageSpace(env.Maze2D(4, 0.2),
			Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.15, 0.12, 0.1, 0.08}}),
		"se2": NewSE2Space(env.Maze2D(3, 0.25), NewRigidRect(0.06, 0.03)),
	}
}

// TestScratchKernelsMatchReference is the pooled-vs-fresh property test:
// ConfigFree/EdgeFree with a reused, dirty scratch must return exactly
// what they return with a fresh one — same verdict, same obstacle-test
// count. Stale state must not leak between calls, nor between robots
// whose probe buffers differ in shape.
func TestScratchKernelsMatchReference(t *testing.T) {
	var sc Scratch // shared across all robots and trials
	for name, s := range scratchSpaces() {
		t.Run(name, func(t *testing.T) {
			r := rng.New(101)
			for trial := 0; trial < 400; trial++ {
				qa := s.SampleIn(s.Bounds, r, nil)
				qb := qa.Clone()
				for i := range qb {
					qb[i] += (r.Float64() - 0.5) * 0.05
				}
				wantFree, wantTests := s.Robot.ConfigFree(s.Env, qa, new(Scratch))
				gotFree, gotTests := s.Robot.ConfigFree(s.Env, qa, &sc)
				if gotFree != wantFree || gotTests != wantTests {
					t.Fatalf("ConfigFree(%v) = (%v, %d) with a dirty scratch, (%v, %d) with a fresh one",
						qa, gotFree, gotTests, wantFree, wantTests)
				}
				wantFree, wantTests = s.Robot.EdgeFree(s.Env, qa, qb, new(Scratch))
				gotFree, gotTests = s.Robot.EdgeFree(s.Env, qa, qb, &sc)
				if gotFree != wantFree || gotTests != wantTests {
					t.Fatalf("EdgeFree(%v, %v) = (%v, %d) with a dirty scratch, (%v, %d) with a fresh one",
						qa, qb, gotFree, gotTests, wantFree, wantTests)
				}
			}
		})
	}
}

// TestLocalPlanSMatchesLocalPlan checks the bisection-ordered planner
// agrees with the sequential reference on the accept/reject verdict for
// every edge, and on the full work counters whenever the edge is
// accepted (on rejection only the verdict is contractual — fail-fast
// stops at a different check).
func TestLocalPlanSMatchesLocalPlan(t *testing.T) {
	spaces := scratchSpaces()
	spaces["point"] = NewPointSpace(env.MedCube())
	for name, s := range spaces {
		t.Run(name, func(t *testing.T) {
			r := rng.New(103)
			var sc Scratch
			accepts, rejects := 0, 0
			for trial := 0; trial < 200; trial++ {
				qa := s.SampleIn(s.Bounds, r, nil)
				qb := s.SampleIn(s.Bounds, r, nil)
				// Mix of short and long edges.
				if trial%2 == 0 {
					qb = qa.Lerp(qb, 0.1)
				}
				var cRef, cScr Counters
				want := s.LocalPlan(qa, qb, &cRef)
				got := s.LocalPlanS(qa, qb, &sc, &cScr)
				if got != want {
					t.Fatalf("LocalPlanS(%v, %v) = %v, LocalPlan = %v", qa, qb, got, want)
				}
				if want {
					accepts++
					if cRef != cScr {
						t.Fatalf("accepted edge counters differ: scratch %+v, reference %+v", cScr, cRef)
					}
				} else {
					rejects++
				}
			}
			if accepts == 0 || rejects == 0 {
				t.Fatalf("degenerate trial mix: %d accepts, %d rejects", accepts, rejects)
			}
		})
	}
}

// TestScratchKernelsAllocFree pins the steady-state allocation contract
// of the pooled kernels on a free edge of the point, rigid and linkage
// robots.
func TestScratchKernelsAllocFree(t *testing.T) {
	for _, tc := range batchCases()[1:4] {
		s := tc.s
		r := rng.New(107)
		var sc Scratch
		var c Counters
		var qa, qb Config
		for {
			qa = s.SampleIn(s.Bounds, r, nil)
			qb = qa.Lerp(s.SampleIn(s.Bounds, r, nil), 0.05)
			if s.ValidS(qa, &sc, &c) && s.LocalPlanS(qa, qb, &sc, &c) { // warms the buffers
				break
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			s.ValidS(qa, &sc, &c)
			s.LocalPlanS(qa, qb, &sc, &c)
		})
		if avg != 0 {
			t.Errorf("%s: scratch kernels allocate %.1f allocs/run in steady state, want 0", tc.name, avg)
		}
	}
}

// TestSampleInIntoMatchesSampleIn verifies a reused destination draws
// what a fresh one draws: same values, same RNG stream consumption.
func TestSampleInIntoMatchesSampleIn(t *testing.T) {
	s := NewRigidBodySpace(env.MedCube(), NewRigidBox(0.03, 0.02, 0.01))
	r1, r2 := rng.New(109), rng.New(109)
	var dst Config
	for trial := 0; trial < 100; trial++ {
		want := s.SampleIn(s.Bounds, r1, nil)
		dst = s.SampleInInto(dst, s.Bounds, r2, nil)
		if !want.Equal(dst, 0) {
			t.Fatalf("trial %d: SampleInInto = %v, SampleIn = %v", trial, dst, want)
		}
	}
}

// TestAdapterAllocsNotAboveParent bounds what Valid and LocalPlan cost a
// caller that holds no scratch: their call-local scratch must not
// allocate more than the allocating kernels they replaced did (counts
// read at the parent on these inputs: an accepted edge of 2–4 steps).
func TestAdapterAllocsNotAboveParent(t *testing.T) {
	parent := map[string]struct{ valid, localPlan float64 }{
		"rigidbody": {19, 112},
		"linkage":   {5, 224},
		"se2":       {5, 32},
	}
	for name, s := range scratchSpaces() {
		r := rng.New(107)
		var qa, qb Config
		for {
			qa = s.SampleIn(s.Bounds, r, nil)
			qb = qa.Lerp(s.SampleIn(s.Bounds, r, nil), 0.05)
			if s.Valid(qa, nil) && s.LocalPlan(qa, qb, nil) {
				break
			}
		}
		valid := testing.AllocsPerRun(100, func() { s.Valid(qa, nil) })
		localPlan := testing.AllocsPerRun(100, func() { s.LocalPlan(qa, qb, nil) })
		if want := parent[name]; valid > want.valid || localPlan > want.localPlan {
			t.Errorf("%s: Valid %.0f allocs (parent %.0f), LocalPlan %.0f allocs (parent %.0f)",
				name, valid, want.valid, localPlan, want.localPlan)
		}
		t.Logf("%s: Valid %.0f allocs, LocalPlan %.0f allocs", name, valid, localPlan)
	}
}

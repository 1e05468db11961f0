package cspace

import (
	"math"

	"parmp/internal/env"
	"parmp/internal/geom"
)

// RigidBody2D is a free-flying rigid body in a 2D workspace.
// Configurations are (x, y, theta); collision is checked on the rotated
// outline of a convex body polygon (vertices in body frame), with the
// outline edges swept as segments so thin obstacles cannot slip between
// probe points.
type RigidBody2D struct {
	// Outline is the body's convex outline in the body frame, CCW.
	Outline []geom.Vec
}

// NewRigidRect returns a rectangle body with half extents (hx, hy).
func NewRigidRect(hx, hy float64) RigidBody2D {
	return RigidBody2D{Outline: []geom.Vec{
		geom.V(-hx, -hy), geom.V(hx, -hy), geom.V(hx, hy), geom.V(-hx, hy),
	}}
}

// placedInto fills out (length len(Outline)) with the workspace outline
// for configuration q.
func (r RigidBody2D) placedInto(q Config, out []geom.Vec) {
	sin, cos := math.Sincos(q[2])
	for i, v := range r.Outline {
		out[i][0] = q[0] + v[0]*cos - v[1]*sin
		out[i][1] = q[1] + v[0]*sin + v[1]*cos
	}
}

// ConfigFree implements Robot: every outline vertex must be free and
// every outline edge must avoid obstacles.
func (r RigidBody2D) ConfigFree(e *env.Environment, q Config, sc *Scratch) (bool, int) {
	sc.worldA = growVecs(sc.worldA, len(r.Outline), 2)
	pts := sc.worldA
	r.placedInto(q, pts)
	tests := 0
	for _, p := range pts {
		free, n := e.CheckPoint(p)
		tests += n
		if !free {
			return false, tests
		}
	}
	n := len(pts)
	for i := 0; i < n; i++ {
		free, k := e.SegmentFree(pts[i], pts[(i+1)%n])
		tests += k
		if !free {
			return false, tests
		}
	}
	return true, tests
}

// EdgeFree implements Robot: each outline vertex sweeps a segment between
// the two configurations (valid for the small steps the local planner
// takes).
func (r RigidBody2D) EdgeFree(e *env.Environment, a, b Config, sc *Scratch) (bool, int) {
	sc.worldA = growVecs(sc.worldA, len(r.Outline), 2)
	sc.worldB = growVecs(sc.worldB, len(r.Outline), 2)
	pa, pb := sc.worldA, sc.worldB
	r.placedInto(a, pa)
	r.placedInto(b, pb)
	tests := 0
	for i := range pa {
		free, n := e.SegmentFree(pa[i], pb[i])
		tests += n
		if !free {
			return false, tests
		}
	}
	return true, tests
}

// NewSE2Space returns the 3-DOF C-space (x, y, theta) of a 2D rigid body
// in e, with theta in [-pi, pi] and down-weighted in the metric.
func NewSE2Space(e *env.Environment, body RigidBody2D) *Space {
	lo := geom.V(e.Bounds.Lo[0], e.Bounds.Lo[1], -math.Pi)
	hi := geom.V(e.Bounds.Hi[0], e.Bounds.Hi[1], math.Pi)
	return &Space{
		Env:        e,
		Robot:      body,
		Bounds:     geom.NewAABB(lo, hi),
		Weights:    []float64{1, 1, 0.2},
		Resolution: defaultResolution(e.Bounds),
	}
}

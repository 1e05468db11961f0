// Package cspace models configuration spaces: robots, configurations,
// distance metrics, samplers, validity checking and the straight-line
// local planner.
//
// All validity and local-planning operations report the amount of
// collision-detection work they performed through a Counters value. Those
// counts are the currency of the whole reproduction: the discrete-event
// machine simulator charges each region task exactly the work its planner
// actually did, which is what makes load imbalance genuine rather than
// synthetic.
package cspace

import (
	"fmt"
	"math"

	"parmp/internal/env"
	"parmp/internal/geom"
)

// Config is a point in configuration space: the robot's d independent
// degrees of freedom.
type Config = geom.Vec

// Counters accumulates the algorithmic work performed by planning
// operations.
type Counters struct {
	CDCalls    int64 // configuration validity checks
	CDObstacle int64 // individual obstacle containment/segment tests
	LPSteps    int64 // local-plan resolution steps
	LPCalls    int64 // local-plan invocations
	KNNQueries int64 // k-nearest-neighbour queries
	KNNEvals   int64 // distance evaluations inside kNN queries
	Samples    int64 // configurations generated
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.CDCalls += o.CDCalls
	c.CDObstacle += o.CDObstacle
	c.LPSteps += o.LPSteps
	c.LPCalls += o.LPCalls
	c.KNNQueries += o.KNNQueries
	c.KNNEvals += o.KNNEvals
	c.Samples += o.Samples
}

// String summarizes the counters.
func (c Counters) String() string {
	return fmt.Sprintf("cd=%d obst=%d lp=%d/%d knn=%d/%d samples=%d",
		c.CDCalls, c.CDObstacle, c.LPCalls, c.LPSteps, c.KNNQueries, c.KNNEvals, c.Samples)
}

// Robot maps configurations to workspace collision queries. Every robot
// has one scalar kernel pair, which writes its temporaries through the
// caller's Scratch, and one path kernel over a struct-of-arrays Batch.
// The scratch and the batch are never nil.
type Robot interface {
	// ConfigFree reports whether configuration q is collision-free in e
	// and how many obstacle tests were used.
	ConfigFree(e *env.Environment, q Config, sc *Scratch) (bool, int)
	// EdgeFree reports whether the workspace sweep between two
	// configurations that are already close (one resolution step apart)
	// is collision-free. Implementations may assume a≈b.
	EdgeFree(e *env.Environment, a, b Config, sc *Scratch) (bool, int)
	// PathFreeBatch validates the path through the batch's
	// configurations q_0..q_{n-1}, posing each once. It must accept or
	// reject exactly as the scalar march — ConfigFree on q_1..q_{n-1},
	// then EdgeFree on every step q_{i-1}→q_i — and on a free path return
	// the sum of the scalar test counts; a rejecting path may stop at a
	// different count (the same fail-fast contract LocalPlanS documents
	// for rejected edges). q_0 is the caller's already-validated start:
	// posed for the first step, neither checked nor counted. As with
	// EdgeFree, consecutive configurations are assumed close.
	PathFreeBatch(e *env.Environment, bt *Batch) (bool, int)
}

// PointRobot is a point in the workspace; its configuration is its
// position. The simplest and fastest robot, used by the theoretical model
// experiments.
type PointRobot struct {
	Dim int
}

// ConfigFree implements Robot; a point needs no temporaries.
func (r PointRobot) ConfigFree(e *env.Environment, q Config, _ *Scratch) (bool, int) {
	return e.CheckPoint(q)
}

// EdgeFree implements Robot.
func (r PointRobot) EdgeFree(e *env.Environment, a, b Config, _ *Scratch) (bool, int) {
	return e.SegmentFree(a, b)
}

// RigidBody is a free-flying rigid body in 3D. Configurations are
// (x, y, z, roll, pitch, yaw); collision is checked by transforming a set
// of body sample points (vertices of the body's shape) into the workspace.
// This is the rigid-body robot of the paper's PRM experiments.
type RigidBody struct {
	// BodyPoints are collision probe points in the body frame.
	BodyPoints []geom.Vec
}

// NewRigidBox returns a rigid body shaped as a box with the given half
// extents, probed at its 8 corners and center.
func NewRigidBox(hx, hy, hz float64) RigidBody {
	pts := []geom.Vec{geom.V(0, 0, 0)}
	for _, sx := range []float64{-1, 1} {
		for _, sy := range []float64{-1, 1} {
			for _, sz := range []float64{-1, 1} {
				pts = append(pts, geom.V(sx*hx, sy*hy, sz*hz))
			}
		}
	}
	return RigidBody{BodyPoints: pts}
}

// pose converts a configuration to a rigid transform. The translation
// aliases q's first three components, so it costs no allocation.
func (r RigidBody) pose(q Config) geom.Transform {
	return geom.Transform{
		R: geom.QuatFromEuler(q[3], q[4], q[5]),
		T: q[0:3:3],
	}
}

// ConfigFree implements Robot. Probe points are checked individually and
// the spokes from the first probe (the body center) to every other probe
// are swept so thin obstacles crossing the body interior are caught. A
// configuration with finite angles whose reach box [t − ρ, t + ρ] clears
// every obstacle inside Bounds is not posed: it returns what the checks
// count on a free configuration, np points and np−1 spokes against
// every obstacle (DESIGN §9).
func (r RigidBody) ConfigFree(e *env.Environment, q Config, sc *Scratch) (bool, int) {
	if np := len(r.BodyPoints); np > 0 && q[3]-q[3]+q[4]-q[4]+q[5]-q[5] == 0 {
		t := [3]float64{q[0], q[1], q[2]}
		if clear, inBounds := reachBox(e, t, t, r.reach()); clear && inBounds {
			return true, (2*np - 1) * len(e.Obstacles)
		}
	}
	tr := r.pose(q)
	sc.worldA = growVecs(sc.worldA, len(r.BodyPoints), 3)
	world := sc.worldA
	tests := 0
	for i, bp := range r.BodyPoints {
		tr.ApplyInto(world[i], bp)
		free, n := e.CheckPoint(world[i])
		tests += n
		if !free {
			return false, tests
		}
	}
	for i := 1; i < len(world); i++ {
		free, n := e.SegmentFree(world[0], world[i])
		tests += n
		if !free {
			return false, tests
		}
	}
	return true, tests
}

// EdgeFree implements Robot.
func (r RigidBody) EdgeFree(e *env.Environment, a, b Config, sc *Scratch) (bool, int) {
	ta, tb := r.pose(a), r.pose(b)
	tests := 0
	for _, bp := range r.BodyPoints {
		sc.pa = ta.ApplyInto(sc.pa, bp)
		sc.pb = tb.ApplyInto(sc.pb, bp)
		free, n := e.SegmentFree(sc.pa, sc.pb)
		tests += n
		if !free {
			return false, tests
		}
	}
	return true, tests
}

// Linkage is a planar articulated chain anchored at Base: configuration
// components are absolute joint angles; link i spans LinkLen[i]. Collision
// is checked by sampling points along each link. This is the
// many-degrees-of-freedom robot class (manipulators, protein backbones)
// the paper's introduction motivates.
type Linkage struct {
	Base     geom.Vec // anchor point in a 2D workspace
	LinkLen  []float64
	ProbesPL int // collision probe points per link (default 4)
}

// DOF returns the configuration dimension, one joint angle per link.
func (l Linkage) DOF() int { return len(l.LinkLen) }

// jointPositionsInto fills pos (length len(LinkLen)+1) with the chain's
// joint endpoint positions for q.
func (l Linkage) jointPositionsInto(q Config, pos []geom.Vec) {
	copy(pos[0], l.Base)
	for i, length := range l.LinkLen {
		pos[i+1][0] = pos[i][0] + length*math.Cos(q[i])
		pos[i+1][1] = pos[i][1] + length*math.Sin(q[i])
	}
}

func (l Linkage) probes() int {
	if l.ProbesPL <= 0 {
		return 4
	}
	return l.ProbesPL
}

// ConfigFree implements Robot. Each link is a workspace segment, so
// collision is exact: joints are point-checked (bounds + obstacles) and
// link bodies are segment-swept.
func (l Linkage) ConfigFree(e *env.Environment, q Config, sc *Scratch) (bool, int) {
	sc.worldA = growVecs(sc.worldA, len(l.LinkLen)+1, 2)
	pos := sc.worldA
	l.jointPositionsInto(q, pos)
	tests := 0
	for _, p := range pos {
		free, n := e.CheckPoint(p)
		tests += n
		if !free {
			return false, tests
		}
	}
	for i := 0; i+1 < len(pos); i++ {
		free, n := e.SegmentFree(pos[i], pos[i+1])
		tests += n
		if !free {
			return false, tests
		}
	}
	return true, tests
}

// EdgeFree implements Robot. For small steps the swept volume is
// approximated by checking link probe-point segments between the two
// configurations.
func (l Linkage) EdgeFree(e *env.Environment, a, b Config, sc *Scratch) (bool, int) {
	nj := len(l.LinkLen) + 1
	sc.worldA = growVecs(sc.worldA, nj, 2)
	sc.worldB = growVecs(sc.worldB, nj, 2)
	pa, pb := sc.worldA, sc.worldB
	l.jointPositionsInto(a, pa)
	l.jointPositionsInto(b, pb)
	tests := 0
	np := l.probes()
	for i := 0; i+1 < nj; i++ {
		for p := 0; p <= np; p++ {
			t := float64(p) / float64(np)
			sc.pa = geom.LerpInto(sc.pa, pa[i], pa[i+1], t)
			sc.pb = geom.LerpInto(sc.pb, pb[i], pb[i+1], t)
			free, n := e.SegmentFree(sc.pa, sc.pb)
			tests += n
			if !free {
				return false, tests
			}
		}
	}
	return true, tests
}

package cspace

import (
	"math"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// Space binds a robot to an environment and defines the planning C-space:
// bounds per DOF, the distance metric, sampling, validity and local
// planning.
type Space struct {
	Env   *env.Environment
	Robot Robot
	// Bounds delimits each configuration dimension. For positional DOFs
	// this is usually the workspace bounds; for angular DOFs [-pi, pi].
	Bounds geom.AABB
	// Weights scales each dimension in the distance metric (angular DOFs
	// typically get smaller weight). Nil means all ones.
	Weights []float64
	// Resolution is the local planner step size in metric distance.
	Resolution float64
	// Steer, when non-nil, replaces straight-line motion in LocalPlan and
	// StepTowardInto with a kinematically feasible curve (e.g. Dubins paths
	// for a car). Distance remains the symmetric metric used by
	// nearest-neighbour structures.
	Steer Steering
}

// Steering generates feasible motions between configurations for
// non-holonomic robots.
type Steering interface {
	// PathLength returns the length of the feasible path from a to b
	// (may differ from the metric and need not be symmetric).
	PathLength(a, b Config) float64
	// Interp returns the configuration at arc length s in [0,
	// PathLength(a, b)] along the feasible path.
	Interp(a, b Config, s float64) Config
}

// NewPointSpace returns a Space for a point robot in e: the C-space equals
// the workspace.
func NewPointSpace(e *env.Environment) *Space {
	return &Space{
		Env:        e,
		Robot:      PointRobot{Dim: e.Dim()},
		Bounds:     e.Bounds,
		Resolution: defaultResolution(e.Bounds),
	}
}

// NewRigidBodySpace returns a Space for a rigid body in a 3D environment:
// 6 DOF (x, y, z, roll, pitch, yaw) with angular dimensions bounded by
// [-pi, pi] and down-weighted in the metric.
func NewRigidBodySpace(e *env.Environment, body RigidBody) *Space {
	lo := geom.V(e.Bounds.Lo[0], e.Bounds.Lo[1], e.Bounds.Lo[2], -math.Pi, -math.Pi, -math.Pi)
	hi := geom.V(e.Bounds.Hi[0], e.Bounds.Hi[1], e.Bounds.Hi[2], math.Pi, math.Pi, math.Pi)
	b := geom.NewAABB(lo, hi)
	return &Space{
		Env:        e,
		Robot:      body,
		Bounds:     b,
		Weights:    []float64{1, 1, 1, 0.1, 0.1, 0.1},
		Resolution: defaultResolution(e.Bounds),
	}
}

// NewLinkageSpace returns a Space for an articulated planar linkage: each
// DOF is an absolute joint angle in [-pi, pi].
func NewLinkageSpace(e *env.Environment, l Linkage) *Space {
	d := l.DOF()
	lo := make(geom.Vec, d)
	hi := make(geom.Vec, d)
	for i := 0; i < d; i++ {
		lo[i], hi[i] = -math.Pi, math.Pi
	}
	return &Space{
		Env:        e,
		Robot:      l,
		Bounds:     geom.NewAABB(lo, hi),
		Resolution: 0.05,
	}
}

func defaultResolution(b geom.AABB) float64 {
	// 1/100 of the workspace diagonal.
	return b.Extent().Norm() / 100
}

// Dim returns the C-space dimension.
func (s *Space) Dim() int { return s.Bounds.Dim() }

// Distance returns the (weighted) Euclidean metric between a and b.
func (s *Space) Distance(a, b Config) float64 {
	if s.Weights == nil {
		return a.Dist(b)
	}
	var sum float64
	for i := range a {
		d := (a[i] - b[i]) * s.Weights[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SampleIn is SampleInInto into a fresh configuration.
func (s *Space) SampleIn(region geom.AABB, r *rng.Stream, c *Counters) Config {
	return s.SampleInInto(nil, region, r, c)
}

// SampleFreeIn draws uniform configurations in region until one is valid
// or maxTries is exhausted; ok reports success. Collision work is
// accumulated into c.
func (s *Space) SampleFreeIn(region geom.AABB, r *rng.Stream, maxTries int, c *Counters) (Config, bool) {
	var sc Scratch
	var q Config
	for t := 0; t < maxTries; t++ {
		q = s.SampleInInto(q, region, r, c)
		if s.ValidS(q, &sc, c) {
			return q, true
		}
	}
	return nil, false
}

// Valid is ValidS for callers that hold no scratch: the scratch is local
// to the call.
func (s *Space) Valid(q Config, c *Counters) bool {
	var sc Scratch
	return s.ValidS(q, &sc, c)
}

// LocalPlan is the sequential local planner: it reports whether the path
// a→b (straight line, or the steering curve when Steer is set) is valid
// at the space's resolution, marching from a and stopping at the first
// failed check. Work (one validity check plus one edge sweep per step)
// is metered into c. The endpoints are assumed already validated. It is
// the only order a steered space can use, and the one callers without a
// scratch of their own use (repair, path utilities): its scratch is
// local to the call.
func (s *Space) LocalPlan(a, b Config, c *Counters) bool {
	var sc Scratch
	return s.localPlan(a, b, &sc, c)
}

// localPlan is LocalPlan through a given scratch.
func (s *Space) localPlan(a, b Config, sc *Scratch, c *Counters) bool {
	if c != nil {
		c.LPCalls++
	}
	total := s.Distance(a, b)
	if s.Steer != nil {
		total = s.Steer.PathLength(a, b)
	}
	steps := int(math.Ceil(total / s.Resolution))
	if steps < 1 {
		steps = 1
	}
	prev := a
	for i := 1; i <= steps; i++ {
		t := float64(i) / float64(steps)
		var q Config
		if s.Steer != nil {
			q = s.Steer.Interp(a, b, t*total)
		} else {
			// Ping-pong: prev, the last step's q, lives in the other buffer.
			q = geom.LerpInto(sc.qa, a, b, t)
			sc.qa, sc.qb = sc.qb, q
		}
		if c != nil {
			c.LPSteps++
		}
		if !s.ValidS(q, sc, c) {
			return false
		}
		free, tests := s.Robot.EdgeFree(s.Env, prev, q, sc)
		if c != nil {
			c.CDObstacle += int64(tests)
		}
		if !free {
			return false
		}
		prev = q
	}
	return true
}

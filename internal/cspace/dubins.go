package cspace

import (
	"math"

	"parmp/internal/dubins"
	"parmp/internal/env"
	"parmp/internal/geom"
)

// DubinsSteering steers a forward-only car with bounded turning radius:
// feasible motions between (x, y, heading) configurations are shortest
// Dubins paths.
type DubinsSteering struct {
	Radius float64
}

// PathLength implements Steering.
func (d DubinsSteering) PathLength(a, b Config) float64 {
	p, ok := dubins.Shortest(a[0], a[1], a[2], b[0], b[1], b[2], d.Radius)
	if !ok {
		return math.Inf(1)
	}
	return p.Length()
}

// Interp implements Steering. Headings are normalized into [-pi, pi] to
// match the C-space bounds.
func (d DubinsSteering) Interp(a, b Config, s float64) Config {
	p, ok := dubins.Shortest(a[0], a[1], a[2], b[0], b[1], b[2], d.Radius)
	if !ok {
		return a.Clone()
	}
	x, y, th := p.At(s)
	if th > math.Pi {
		th -= 2 * math.Pi
	}
	return geom.V(x, y, th)
}

// NewDubinsSpace returns the C-space of a Dubins car (a point vehicle
// with bounded turning radius) in a 2D environment: configurations are
// (x, y, heading), local plans follow shortest Dubins curves, and the
// metric remains the weighted Euclidean distance so nearest-neighbour
// structures stay symmetric.
func NewDubinsSpace(e *env.Environment, radius float64) *Space {
	lo := geom.V(e.Bounds.Lo[0], e.Bounds.Lo[1], -math.Pi)
	hi := geom.V(e.Bounds.Hi[0], e.Bounds.Hi[1], math.Pi)
	return &Space{
		Env:        e,
		Robot:      dubinsPoint{},
		Bounds:     geom.NewAABB(lo, hi),
		Weights:    []float64{1, 1, 0.2},
		Resolution: defaultResolution(e.Bounds),
		Steer:      DubinsSteering{Radius: radius},
	}
}

// dubinsPoint checks only the car's (x, y) position against obstacles;
// the heading dimension is kinematic, not geometric.
type dubinsPoint struct{}

func (dubinsPoint) ConfigFree(e *env.Environment, q Config, _ *Scratch) (bool, int) {
	return e.CheckPoint(q[:2])
}

func (dubinsPoint) EdgeFree(e *env.Environment, a, b Config, _ *Scratch) (bool, int) {
	return e.SegmentFree(a[:2], b[:2])
}

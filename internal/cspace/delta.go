package cspace

import (
	"parmp/internal/env"
	"parmp/internal/geom"
)

// WithEnv returns a shallow copy of s bound to e: same robot, bounds,
// metric, resolution and steering, different world. This is the
// copy-on-write step of environment versioning — published snapshots
// keep their old space while new rounds plan against the mutated one.
func (s *Space) WithEnv(e *env.Environment) *Space {
	c := *s
	c.Env = e
	return &c
}

// RepairStats tallies incremental-repair work: one region's or tree's
// re-validation against a delta, or an engine's across its deltas.
type RepairStats struct {
	// Deltas counts committed ApplyDelta calls.
	Deltas int
	// CheckedNodes / CheckedEdges count the collision re-checks actually
	// paid (conservative culling makes everything else free).
	CheckedNodes, CheckedEdges int
	// RemovedNodes / RemovedEdges count roadmap vertices / edges (or
	// tree nodes / bridges) invalidated by the deltas.
	RemovedNodes, RemovedEdges int
	// Grafted counts severed RRT subtrees saved by regrafting.
	Grafted int
	// Makespan is the cumulative virtual time of the repair phases.
	Makespan float64
	Work     Counters
}

// Add folds b into a.
func (a *RepairStats) Add(b RepairStats) {
	a.Deltas += b.Deltas
	a.CheckedNodes += b.CheckedNodes
	a.CheckedEdges += b.CheckedEdges
	a.RemovedNodes += b.RemovedNodes
	a.RemovedEdges += b.RemovedEdges
	a.Grafted += b.Grafted
	a.Makespan += b.Makespan
	a.Work.Add(b.Work)
}

// A DeltaChecker re-validates configurations and edges that were free
// before an environment mutation against only the obstacles the
// mutation added. Two facts make this sound:
//
//   - Removing an obstacle can only free configurations, so a delta
//     with no Added obstacles invalidates nothing.
//   - LocalPlan's step discretization depends only on the metric and
//     resolution, never on the environment, so checking an edge against
//     a world containing only the added obstacles visits exactly the
//     same intermediate configurations as a full recheck — restricted
//     to the obstacles that could have changed the answer.
//
// On top of that the checker culls conservatively: configurations whose
// workspace extent provably cannot reach the added obstacles are
// declared unaffected without any collision test. Culling errs toward
// "affected" (costing a redundant check, never a wrong answer): robots
// without a positional configuration prefix (Linkage) fall back to an
// all-or-nothing reachability disk, and steered edges are culled by the
// arc-length ball around their source.
type DeltaChecker struct {
	deltaSpace *Space // s with the env replaced by added-obstacles-only
	// invalidating is false for removal-only (or empty) deltas: nothing
	// can have become blocked.
	invalidating bool
	// neverAffected short-circuits everything: the delta lies entirely
	// outside the robot's reachable workspace (Linkage case).
	neverAffected bool
	// cull is the union bounds of the added obstacles inflated by the
	// robot's reach; canCull gates its use (false when the robot's
	// position cannot be read off the configuration prefix).
	cull    geom.AABB
	canCull bool
	posDims int
}

// NewDeltaChecker builds a checker for re-validating s-space state
// against d. The checker is read-only and safe for concurrent use by
// multiple workers.
func NewDeltaChecker(s *Space, d env.Delta) *DeltaChecker {
	dc := &DeltaChecker{invalidating: d.Invalidating()}
	if !dc.invalidating {
		return dc
	}
	deltaEnv := &env.Environment{
		Name:      s.Env.Name + "+delta",
		Bounds:    s.Env.Bounds,
		Obstacles: d.Added,
	}
	dc.deltaSpace = s.WithEnv(deltaEnv)
	posDims, reach, ok := robotReach(s.Robot)
	if ok {
		if b, has := d.AddedBounds(reach); has {
			dc.cull, dc.canCull = b, true
			dc.posDims = posDims
		}
		return dc
	}
	// No positional prefix: the only cull available is global. A planar
	// linkage lives inside the disk around its base with radius equal
	// to the total link length; a delta outside that disk can never
	// touch it.
	if l, isLinkage := s.Robot.(Linkage); isLinkage {
		var total float64
		for _, ll := range l.LinkLen {
			total += ll
		}
		if b, has := d.AddedBounds(0); has {
			if b.DistanceTo(l.Base) > total {
				dc.neverAffected = true
			}
		}
	}
	return dc
}

// robotReach returns the number of leading configuration dimensions
// that are workspace positions and the maximum workspace distance any
// point of the robot body can lie from that position. ok=false means
// the robot's extent cannot be bounded from a configuration prefix.
func robotReach(r Robot) (posDims int, reach float64, ok bool) {
	switch rb := r.(type) {
	case PointRobot:
		return rb.Dim, 0, true
	case RigidBody:
		var m float64
		for _, p := range rb.BodyPoints {
			if n := p.Norm(); n > m {
				m = n
			}
		}
		return 3, m, true
	case RigidBody2D:
		var m float64
		for _, p := range rb.Outline {
			if n := p.Norm(); n > m {
				m = n
			}
		}
		return 2, m, true
	}
	return 0, 0, false
}

// Invalidating reports whether any previously free configuration or
// edge can have become blocked.
func (dc *DeltaChecker) Invalidating() bool {
	return dc.invalidating && !dc.neverAffected
}

// CullBall returns a workspace ball guaranteed to contain every
// configuration whose freeness the delta can have changed, for use as a
// kd radius query, and ok=false when no such ball applies (the checker
// cannot cull, or the configuration prefix is not the full unweighted
// C-space as in point-robot planning).
func (dc *DeltaChecker) CullBall() (center geom.Vec, radius float64, ok bool) {
	if !dc.Invalidating() || !dc.canCull {
		return nil, 0, false
	}
	s := dc.deltaSpace
	if dc.posDims != s.Dim() || s.Weights != nil {
		return nil, 0, false
	}
	c := dc.cull.Center()
	return c, dc.cull.Extent().Norm() / 2, true
}

// ConfigAffected conservatively reports whether q's freeness can have
// changed. False is a guarantee; true means "re-check".
func (dc *DeltaChecker) ConfigAffected(q Config) bool {
	if !dc.Invalidating() {
		return false
	}
	if dc.canCull {
		for i := 0; i < dc.posDims; i++ {
			if q[i] < dc.cull.Lo[i] || q[i] > dc.cull.Hi[i] {
				return false
			}
		}
	}
	return true
}

// EdgeAffected conservatively reports whether the edge a→b can have
// become blocked.
func (dc *DeltaChecker) EdgeAffected(a, b Config) bool {
	if !dc.Invalidating() {
		return false
	}
	if !dc.canCull {
		return true
	}
	if dc.deltaSpace.Steer != nil {
		// A steered path of arc length L starting at a stays within
		// workspace distance L of a's position, so cull with the
		// L-ball around a (extent bound: positional speed along the
		// path is at most 1 per unit arc length).
		l := dc.deltaSpace.Steer.PathLength(a, b)
		for i := 0; i < dc.posDims; i++ {
			if a[i]+l < dc.cull.Lo[i] || a[i]-l > dc.cull.Hi[i] {
				return false
			}
		}
		return true
	}
	// Straight-line motion: the positional sweep lies in the AABB of
	// the two endpoint positions.
	for i := 0; i < dc.posDims; i++ {
		lo, hi := a[i], b[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < dc.cull.Lo[i] || lo > dc.cull.Hi[i] {
			return false
		}
	}
	return true
}

// HullAffected conservatively reports whether a configuration whose
// position lies in the hull of boxes a and b, or a straight-line edge
// between two such, can have been invalidated: false clears a whole
// region (a = b) or pair of regions at once. Steered edges leave their
// endpoints' box, so a steered space answers true, as does a checker
// that cannot cull.
func (dc *DeltaChecker) HullAffected(a, b geom.AABB) bool {
	if !dc.Invalidating() || !dc.canCull || dc.deltaSpace.Steer != nil {
		return dc.Invalidating()
	}
	for i := 0; i < dc.posDims; i++ {
		if max(a.Hi[i], b.Hi[i]) < dc.cull.Lo[i] || min(a.Lo[i], b.Lo[i]) > dc.cull.Hi[i] {
			return false
		}
	}
	return true
}

// ConfigStillFree reports whether a configuration that was free before
// the delta remains free after it, metering work into c.
func (dc *DeltaChecker) ConfigStillFree(q Config, c *Counters) bool {
	if !dc.ConfigAffected(q) {
		return true
	}
	return dc.deltaSpace.Valid(q, c)
}

// EdgeStillFree reports whether an edge that was valid before the delta
// remains valid after it, metering work into c. Endpoints are assumed
// re-validated separately (the LocalPlan convention).
func (dc *DeltaChecker) EdgeStillFree(a, b Config, c *Counters) bool {
	return dc.EdgeStillFreeS(a, b, nil, c)
}

// EdgeStillFreeS is EdgeStillFree through a repair task's own scratch;
// a nil sc makes one for an affected edge, as LocalPlan does.
func (dc *DeltaChecker) EdgeStillFreeS(a, b Config, sc *Scratch, c *Counters) bool {
	if !dc.EdgeAffected(a, b) {
		return true
	}
	if sc == nil {
		sc = new(Scratch)
	}
	return dc.deltaSpace.localPlan(a, b, sc, c)
}

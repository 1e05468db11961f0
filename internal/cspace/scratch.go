package cspace

import (
	"math"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// Scratch holds the reusable buffers the scalar collision kernels write
// through: workspace probe positions, interpolated configurations and
// probe temporaries. Whoever calls a kernel owns the Scratch it passes —
// a planner arena, a query scratch, or, in the signature-preserving
// adapters (Valid, LocalPlan), a value local to the call. A Scratch is
// not safe for concurrent use and is never shared: a package-level one
// would make every caller of Valid a writer of the same buffers. The
// zero value is ready; a dirty one gives the same answers as a fresh one.
type Scratch struct {
	worldA []geom.Vec // probe positions at the first configuration
	worldB []geom.Vec // probe positions at the second configuration
	qa, qb Config     // interpolated configurations (local-plan ping-pong)
	pa, pb geom.Vec   // per-probe temporaries (must not alias qa/qb)
}

// growVecs returns buf as n vectors of dimension dim. A buffer of that
// shape is reused; otherwise the vectors are cut from one fresh slab, so
// a cold scratch costs two allocations whatever the probe count. Every
// buffer it is handed came from it, so the first vector's shape is
// every vector's.
func growVecs(buf []geom.Vec, n, dim int) []geom.Vec {
	if len(buf) == n && (n == 0 || len(buf[0]) == dim) {
		return buf
	}
	slab := make([]float64, n*dim)
	buf = make([]geom.Vec, n)
	for i := range buf {
		buf[i] = slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return buf
}

// ValidS reports whether q is collision-free, metering work into c.
func (s *Space) ValidS(q Config, sc *Scratch, c *Counters) bool {
	free, tests := s.Robot.ConfigFree(s.Env, q, sc)
	if c != nil {
		c.CDCalls++
		c.CDObstacle += int64(tests)
	}
	return free
}

// LocalPlanS is the bisection-order local planner: interpolated
// configurations live in the scratch's ping-pong buffers and the
// intermediate points are validity-checked in bisection order (endpoint
// first, then recursive midpoints) before the edge sweeps run, so paths
// that clip an obstacle mid-span fail after O(log steps) checks instead
// of a linear march into it.
//
// The accept/reject outcome is identical to LocalPlan: both reject iff
// any of the same point or edge checks fails, and on the success path the
// same checks run exactly once each, so work counters agree. Only the
// counter totals on *rejected* edges differ (fail-fast stops earlier,
// possibly at a different check). Steered spaces fall back to LocalPlan —
// Steering.Interp allocates its result by contract.
func (s *Space) LocalPlanS(a, b Config, sc *Scratch, c *Counters) bool {
	if s.Steer != nil {
		return s.LocalPlan(a, b, c)
	}
	if c != nil {
		c.LPCalls++
	}
	steps := int(math.Ceil(s.Distance(a, b) / s.Resolution))
	if steps < 1 {
		steps = 1
	}
	check := func(i int) bool {
		sc.qa = geom.LerpInto(sc.qa, a, b, float64(i)/float64(steps))
		if c != nil {
			c.LPSteps++
		}
		return s.ValidS(sc.qa, sc, c)
	}
	// Bisection order: the endpoint, then each interior index i = odd·2^k
	// grouped by descending stride 2^k. Every index in [1, steps] is
	// visited exactly once.
	if !check(steps) {
		return false
	}
	stride := 1
	for stride < steps {
		stride <<= 1
	}
	for stride >>= 1; stride >= 1; stride >>= 1 {
		for i := stride; i < steps; i += 2 * stride {
			if !check(i) {
				return false
			}
		}
	}
	// All points are valid; sweep the connecting edges in order. prev and
	// cur ping-pong between the two scratch configuration buffers.
	prev := geom.CopyInto(sc.qb, a)
	sc.qb = prev
	for i := 1; i <= steps; i++ {
		sc.qa = geom.LerpInto(sc.qa, a, b, float64(i)/float64(steps))
		free, tests := s.Robot.EdgeFree(s.Env, prev, sc.qa, sc)
		if c != nil {
			c.CDObstacle += int64(tests)
		}
		if !free {
			return false
		}
		sc.qa, sc.qb = sc.qb, sc.qa
		prev = sc.qb
	}
	return true
}

// SampleInInto draws a uniform configuration into dst (growing it as
// needed) whose positional coordinates lie in region (a sub-box of the
// first region.Dim() C-space dimensions); remaining dimensions are drawn
// from the full C-space bounds. The sample is not validity-checked.
func (s *Space) SampleInInto(dst Config, region geom.AABB, r *rng.Stream, c *Counters) Config {
	d := s.Dim()
	if cap(dst) < d {
		dst = make(Config, d)
	}
	dst = dst[:d]
	for i := range dst {
		if i < region.Dim() {
			dst[i] = r.Range(region.Lo[i], region.Hi[i])
		} else {
			dst[i] = r.Range(s.Bounds.Lo[i], s.Bounds.Hi[i])
		}
	}
	if c != nil {
		c.Samples++
	}
	return dst
}

// StepTowardInto writes into dst the configuration at most stepSize from
// a toward b — along the straight line (metric distance) or the steering
// curve (arc length) when Steer is set — and reports whether it reached b
// exactly. The returned config is dst (grown as needed).
func (s *Space) StepTowardInto(dst Config, a, b Config, stepSize float64) (Config, bool) {
	if s.Steer != nil {
		d := s.Steer.PathLength(a, b)
		if d <= stepSize {
			return geom.CopyInto(dst, b), true
		}
		return geom.CopyInto(dst, s.Steer.Interp(a, b, stepSize)), false
	}
	d := s.Distance(a, b)
	if d <= stepSize {
		return geom.CopyInto(dst, b), true
	}
	return geom.LerpInto(dst, a, b, stepSize/d), false
}

package cspace

import (
	"math"

	"parmp/internal/env"
	"parmp/internal/geom"
)

// Batch is a struct-of-arrays scratch for the batched collision
// kernels: candidate configurations (and edge endpoints) live in
// per-dimension contiguous float columns, so the per-obstacle inner
// loops of env.CheckPointsSoA / env.SegmentsFreeSoA stream over flat
// slices with no interface dispatch and no per-candidate allocation.
// A batch fails fast on the first colliding candidate.
//
// Block A holds candidate configurations; block B, when filled by the
// edge appenders, pairs with A so edge i runs A[i]→B[i]. Robot kernels
// expand the configuration blocks into workspace probe columns
// internally. A Batch is not safe for concurrent use; the zero value is
// ready after Reset.
type Batch struct {
	n   int
	dim int
	a   [][]float64 // block A: candidate configurations, one column per DOF
	b   [][]float64 // block B: edge end configurations paired with block A

	wa, wb, wc, wd [][]float64 // workspace probe columns built by robot kernels

	esc env.BatchScratch
	pa  geom.Vec // probe temporary
}

// resetCols resizes cols to d empty columns, reusing storage.
func resetCols(cols [][]float64, d int) [][]float64 {
	if cap(cols) < d {
		next := make([][]float64, d)
		copy(next, cols[:cap(cols)])
		cols = next
	}
	cols = cols[:d]
	for k := range cols {
		cols[k] = cols[k][:0]
	}
	return cols
}

// Reset empties the batch for candidates of the given dimension.
func (bt *Batch) Reset(dim int) {
	bt.n = 0
	bt.dim = dim
	bt.a = resetCols(bt.a, dim)
	bt.b = resetCols(bt.b, dim)
}

// Len returns the number of batched candidates.
func (bt *Batch) Len() int { return bt.n }

// Append adds configuration q to block A.
func (bt *Batch) Append(q Config) {
	for k := 0; k < bt.dim; k++ {
		bt.a[k] = append(bt.a[k], q[k])
	}
	bt.n++
}

// AppendLerp adds the interpolated configuration a + t*(b-a) to block
// A, with the same per-component arithmetic as geom.LerpInto so batched
// candidates are bit-identical to the scalar planner's.
func (bt *Batch) AppendLerp(a, b Config, t float64) {
	for k := 0; k < bt.dim; k++ {
		bt.a[k] = append(bt.a[k], a[k]+t*(b[k]-a[k]))
	}
	bt.n++
}

// AppendEdge adds the edge qa→qb to blocks A and B.
func (bt *Batch) AppendEdge(qa, qb Config) {
	for k := 0; k < bt.dim; k++ {
		bt.a[k] = append(bt.a[k], qa[k])
		bt.b[k] = append(bt.b[k], qb[k])
	}
	bt.n++
}

// AppendEdgeLerp adds the edge between the interpolations of a→b at t0
// and t1.
func (bt *Batch) AppendEdgeLerp(a, b Config, t0, t1 float64) {
	for k := 0; k < bt.dim; k++ {
		ak := a[k]
		d := b[k] - ak
		bt.a[k] = append(bt.a[k], ak+t0*d)
		bt.b[k] = append(bt.b[k], ak+t1*d)
	}
	bt.n++
}

// ConfigFreeBatch implements Robot: the configuration columns are
// the workspace point columns.
func (r PointRobot) ConfigFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return e.CheckPointsSoA(bt.a, bt.n, &bt.esc)
}

// EdgeFreeBatch implements Robot.
func (r PointRobot) EdgeFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return e.SegmentsFreeSoA(bt.a, bt.b, bt.n, &bt.esc)
}

// ConfigFreeBatch implements Robot: only the (x, y) columns are
// geometric; heading is kinematic.
func (dubinsPoint) ConfigFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return e.CheckPointsSoA(bt.a[:2], bt.n, &bt.esc)
}

// EdgeFreeBatch implements Robot.
func (dubinsPoint) EdgeFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return e.SegmentsFreeSoA(bt.a[:2], bt.b[:2], bt.n, &bt.esc)
}

// bodyPointsInto expands the rigid body's probe points for every
// configuration in the SoA block cfg, config-major (config i's probe p
// lands at column index i*len(r.BodyPoints)+p). The world coordinates
// match Transform.ApplyInto bit for bit.
func (r RigidBody) bodyPointsInto(bt *Batch, cfg [][]float64, dst [][]float64) [][]float64 {
	dst = resetCols(dst, 3)
	for i := 0; i < bt.n; i++ {
		rot := geom.QuatFromEuler(cfg[3][i], cfg[4][i], cfg[5][i])
		tx, ty, tz := cfg[0][i], cfg[1][i], cfg[2][i]
		for _, bp := range r.BodyPoints {
			bt.pa = rot.RotateInto(bt.pa, bp)
			dst[0] = append(dst[0], bt.pa[0]+tx)
			dst[1] = append(dst[1], bt.pa[1]+ty)
			dst[2] = append(dst[2], bt.pa[2]+tz)
		}
	}
	return dst
}

// ConfigFreeBatch implements Robot: all probe points of all
// configurations are checked in one SoA sweep, then all center→probe
// spokes in another.
func (r RigidBody) ConfigFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	np := len(r.BodyPoints)
	if np == 0 || bt.n == 0 {
		return true, 0
	}
	bt.wa = r.bodyPointsInto(bt, bt.a, bt.wa)
	free, tests := e.CheckPointsSoA(bt.wa, bt.n*np, &bt.esc)
	if !free {
		return false, tests
	}
	bt.wb = resetCols(bt.wb, 3)
	bt.wc = resetCols(bt.wc, 3)
	for i := 0; i < bt.n; i++ {
		base := i * np
		for p := 1; p < np; p++ {
			for k := 0; k < 3; k++ {
				bt.wb[k] = append(bt.wb[k], bt.wa[k][base])
				bt.wc[k] = append(bt.wc[k], bt.wa[k][base+p])
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, bt.n*(np-1), &bt.esc)
	return sfree, tests + stests
}

// EdgeFreeBatch implements Robot: every probe point of every edge
// sweeps one segment, all checked in one SoA sweep.
func (r RigidBody) EdgeFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	np := len(r.BodyPoints)
	if np == 0 || bt.n == 0 {
		return true, 0
	}
	bt.wa = r.bodyPointsInto(bt, bt.a, bt.wa)
	bt.wb = r.bodyPointsInto(bt, bt.b, bt.wb)
	return e.SegmentsFreeSoA(bt.wa, bt.wb, bt.n*np, &bt.esc)
}

// jointColumnsInto expands the chain's joint positions for every
// configuration in cfg, config-major (config i's joint j at column
// index i*(len(l.LinkLen)+1)+j), matching jointPositionsInto bit for
// bit.
func (l Linkage) jointColumnsInto(bt *Batch, cfg [][]float64, dst [][]float64) [][]float64 {
	dst = resetCols(dst, 2)
	for i := 0; i < bt.n; i++ {
		x, y := l.Base[0], l.Base[1]
		dst[0] = append(dst[0], x)
		dst[1] = append(dst[1], y)
		for j, length := range l.LinkLen {
			x = x + length*math.Cos(cfg[j][i])
			y = y + length*math.Sin(cfg[j][i])
			dst[0] = append(dst[0], x)
			dst[1] = append(dst[1], y)
		}
	}
	return dst
}

// ConfigFreeBatch implements Robot: all joints of all
// configurations are point-checked in one sweep, then all link bodies
// are segment-swept in another.
func (l Linkage) ConfigFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nj := len(l.LinkLen) + 1
	if bt.n == 0 {
		return true, 0
	}
	bt.wa = l.jointColumnsInto(bt, bt.a, bt.wa)
	free, tests := e.CheckPointsSoA(bt.wa, bt.n*nj, &bt.esc)
	if !free {
		return false, tests
	}
	bt.wb = resetCols(bt.wb, 2)
	bt.wc = resetCols(bt.wc, 2)
	for i := 0; i < bt.n; i++ {
		base := i * nj
		for j := 0; j+1 < nj; j++ {
			for k := 0; k < 2; k++ {
				bt.wb[k] = append(bt.wb[k], bt.wa[k][base+j])
				bt.wc[k] = append(bt.wc[k], bt.wa[k][base+j+1])
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, bt.n*(nj-1), &bt.esc)
	return sfree, tests + stests
}

// EdgeFreeBatch implements Robot: the probe points interpolated
// along each link sweep segments between the two configurations of
// every edge, all checked in one SoA sweep.
func (l Linkage) EdgeFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nj := len(l.LinkLen) + 1
	if bt.n == 0 || nj < 2 {
		return true, 0
	}
	np := l.probes()
	bt.wa = l.jointColumnsInto(bt, bt.a, bt.wa)
	bt.wb = l.jointColumnsInto(bt, bt.b, bt.wb)
	bt.wc = resetCols(bt.wc, 2)
	bt.wd = resetCols(bt.wd, 2)
	for i := 0; i < bt.n; i++ {
		base := i * nj
		for j := 0; j+1 < nj; j++ {
			for p := 0; p <= np; p++ {
				t := float64(p) / float64(np)
				for k := 0; k < 2; k++ {
					a0 := bt.wa[k][base+j]
					b0 := bt.wb[k][base+j]
					bt.wc[k] = append(bt.wc[k], a0+t*(bt.wa[k][base+j+1]-a0))
					bt.wd[k] = append(bt.wd[k], b0+t*(bt.wb[k][base+j+1]-b0))
				}
			}
		}
	}
	return e.SegmentsFreeSoA(bt.wc, bt.wd, bt.n*(nj-1)*(np+1), &bt.esc)
}

// outlineColumnsInto expands the placed outline for every configuration
// in cfg, config-major, matching placedInto bit for bit.
func (r RigidBody2D) outlineColumnsInto(bt *Batch, cfg [][]float64, dst [][]float64) [][]float64 {
	dst = resetCols(dst, 2)
	for i := 0; i < bt.n; i++ {
		sin, cos := math.Sincos(cfg[2][i])
		x, y := cfg[0][i], cfg[1][i]
		for _, v := range r.Outline {
			dst[0] = append(dst[0], x+v[0]*cos-v[1]*sin)
			dst[1] = append(dst[1], y+v[0]*sin+v[1]*cos)
		}
	}
	return dst
}

// ConfigFreeBatch implements Robot: all outline vertices of all
// configurations are point-checked in one sweep, then all outline edges
// (with wraparound) are segment-swept in another.
func (r RigidBody2D) ConfigFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nv := len(r.Outline)
	if nv == 0 || bt.n == 0 {
		return true, 0
	}
	bt.wa = r.outlineColumnsInto(bt, bt.a, bt.wa)
	free, tests := e.CheckPointsSoA(bt.wa, bt.n*nv, &bt.esc)
	if !free {
		return false, tests
	}
	bt.wb = resetCols(bt.wb, 2)
	bt.wc = resetCols(bt.wc, 2)
	for i := 0; i < bt.n; i++ {
		base := i * nv
		for v := 0; v < nv; v++ {
			for k := 0; k < 2; k++ {
				bt.wb[k] = append(bt.wb[k], bt.wa[k][base+v])
				bt.wc[k] = append(bt.wc[k], bt.wa[k][base+(v+1)%nv])
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, bt.n*nv, &bt.esc)
	return sfree, tests + stests
}

// EdgeFreeBatch implements Robot: every outline vertex of every
// edge sweeps one segment.
func (r RigidBody2D) EdgeFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nv := len(r.Outline)
	if nv == 0 || bt.n == 0 {
		return true, 0
	}
	bt.wa = r.outlineColumnsInto(bt, bt.a, bt.wa)
	bt.wb = r.outlineColumnsInto(bt, bt.b, bt.wb)
	return e.SegmentsFreeSoA(bt.wa, bt.wb, bt.n*nv, &bt.esc)
}

// LocalPlanBatch is the batched local planner: the interpolated
// configurations of the whole edge are laid out in the batch's SoA
// block and validated with one ConfigFreeBatch sweep, then all step
// edges with one EdgeFreeBatch sweep. Obstacle-major iteration inside
// the sweeps amortizes interface dispatch across the batch, and each
// sweep fails fast on the first hit.
//
// The accept/reject outcome is identical to LocalPlan/LocalPlanS: all
// three reject iff any of the same point or edge checks fails, and on
// the success path the same checks run exactly once each, so work
// counters agree. Only the counter totals on *rejected* edges differ
// (the sweeps stop at a different check than the scalar orders).
// Steered spaces fall back to LocalPlan.
func (s *Space) LocalPlanBatch(a, b Config, bt *Batch, c *Counters) bool {
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
	bt.Reset(s.Dim())
	for i := 1; i <= steps; i++ {
		bt.AppendLerp(a, b, float64(i)/float64(steps))
	}
	free, tests := s.Robot.ConfigFreeBatch(s.Env, bt)
	if c != nil {
		// Charged up front: on acceptance the totals are exactly what the
		// scalar planner counts (steps validity checks, all tests).
		c.LPSteps += int64(steps)
		c.CDCalls += int64(steps)
		c.CDObstacle += int64(tests)
	}
	if !free {
		return false
	}
	bt.Reset(s.Dim())
	for i := 1; i <= steps; i++ {
		bt.AppendEdgeLerp(a, b, float64(i-1)/float64(steps), float64(i)/float64(steps))
	}
	free, tests = s.Robot.EdgeFreeBatch(s.Env, bt)
	if c != nil {
		c.CDObstacle += int64(tests)
	}
	return free
}

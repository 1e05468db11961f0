package cspace

import (
	"math"
	"slices"

	"parmp/internal/env"
	"parmp/internal/geom"
)

// Batch is a struct-of-arrays scratch for the path kernels: the
// configurations of a local plan's path live in per-dimension contiguous
// float columns (block A), so the per-obstacle inner loops of
// env.CheckPointsSoA / env.SegmentsFreeSoA stream over flat slices with
// no interface dispatch and no per-configuration allocation. A path
// fails fast on the first colliding check.
//
// Robot kernels pose block A into workspace columns, each configuration
// once, and hand the env kernels column windows of them. A Batch is not
// safe for concurrent use; the zero value is ready after Reset.
type Batch struct {
	n   int
	dim int
	a   [][]float64 // block A: the path's configurations, one column per DOF

	wa, wb, wc, wd [][]float64 // workspace columns built by robot kernels
	lo, hi         [][]float64 // column windows: slice headers, never copies

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

// sizeCols resizes cols to d columns of n rows each, reusing storage;
// the rows hold stale values until the caller writes them.
func sizeCols(cols [][]float64, d, n int) [][]float64 {
	cols = resetCols(cols, d)
	for k := range cols {
		cols[k] = slices.Grow(cols[k], n)[:n]
	}
	return cols
}

// window points dst at rows [from, to) of every column of cols.
func window(dst, cols [][]float64, from, to int) [][]float64 {
	dst = dst[:0]
	for _, c := range cols {
		dst = append(dst, c[from:to])
	}
	return dst
}

// Reset empties the batch for configurations of the given dimension.
func (bt *Batch) Reset(dim int) {
	bt.n = 0
	bt.dim = dim
	bt.a = resetCols(bt.a, dim)
}

// AppendLerp adds the interpolated configuration a + t*(b-a) to block
// A, with the same per-component arithmetic as geom.LerpInto so batched
// configurations are bit-identical to the scalar planner's.
func (bt *Batch) AppendLerp(a, b Config, t float64) {
	for k := 0; k < bt.dim; k++ {
		bt.a[k] = append(bt.a[k], a[k]+t*(b[k]-a[k]))
	}
	bt.n++
}

// pointsFree checks the posed points of configurations 1..n-1, where
// posed holds m points per configuration, configuration-major.
func (bt *Batch) pointsFree(e *env.Environment, posed [][]float64, m int) (bool, int) {
	bt.hi = window(bt.hi, posed, m, bt.n*m)
	return e.CheckPointsSoA(bt.hi, (bt.n-1)*m, &bt.esc)
}

// stepsFree sweeps every step i-1 → i of the path: probe p of
// configuration i-1 to probe p of configuration i, where swept holds m
// probes per configuration. The two ends are the windows [0, (n-1)·m)
// and [m, n·m) of the same columns.
func (bt *Batch) stepsFree(e *env.Environment, swept [][]float64, m int) (bool, int) {
	k := (bt.n - 1) * m
	bt.lo = window(bt.lo, swept, 0, k)
	bt.hi = window(bt.hi, swept, m, k+m)
	return e.SegmentsFreeSoA(bt.lo, bt.hi, k, &bt.esc)
}

// PathFreeBatch implements Robot: the configuration columns are the
// workspace point columns.
func (r PointRobot) PathFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return pointPathFree(e, bt, bt.a)
}

// PathFreeBatch implements Robot: only the (x, y) columns are geometric;
// heading is kinematic.
func (dubinsPoint) PathFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	return pointPathFree(e, bt, bt.a[:2])
}

// pointPathFree is the path kernel of a point whose workspace position
// is the configuration columns cols: nothing to pose, no body segments.
func pointPathFree(e *env.Environment, bt *Batch, cols [][]float64) (bool, int) {
	if bt.n < 2 {
		return true, 0
	}
	free, tests := bt.pointsFree(e, cols, 1)
	if !free {
		return false, tests
	}
	sfree, stests := bt.stepsFree(e, cols, 1)
	return sfree, tests + stests
}

// bodyPointsInto poses the rigid body's probe points for every
// configuration of block A, config-major (config i's probe p lands at
// column index i*len(r.BodyPoints)+p).
func (r RigidBody) bodyPointsInto(bt *Batch, dst [][]float64) [][]float64 {
	np := len(r.BodyPoints)
	dst = sizeCols(dst, 3, bt.n*np)
	for i, j := 0, 0; i < bt.n; i, j = i+1, j+np {
		r.poseRow(bt, i, dst[0][j:], dst[1][j:], dst[2][j:])
	}
	return dst
}

// poseRow poses row i of block A, its probe p landing at xs[p], ys[p],
// zs[p]. The world coordinates match Transform.ApplyInto bit for bit.
func (r RigidBody) poseRow(bt *Batch, i int, xs, ys, zs []float64) {
	rot := geom.QuatFromEuler(bt.a[3][i], bt.a[4][i], bt.a[5][i])
	tx, ty, tz := bt.a[0][i], bt.a[1][i], bt.a[2][i]
	for p, bp := range r.BodyPoints {
		bt.pa = rot.RotateInto(bt.pa, bp)
		xs[p], ys[p], zs[p] = bt.pa[0]+tx, bt.pa[1]+ty, bt.pa[2]+tz
	}
}

// reach is ρ = max|v|·(1 + 2^-20) + 2^-28 over the body points: no posed
// probe lies farther than ρ from its configuration's translation on any
// axis (DESIGN §9). A NaN or infinite point makes ρ NaN or infinite.
// The square root is monotone, so one root of the largest square is the
// largest root.
func (r RigidBody) reach() float64 {
	var m2 float64
	for _, v := range r.BodyPoints {
		m2 = max(m2, v.Norm2())
	}
	return math.Sqrt(m2)*(1+0x1p-20) + 0x1p-28
}

// reachBox asks e about the translation range [lo, hi] widened by ρ:
// whether the box clears every obstacle and lies inside Bounds.
func reachBox(e *env.Environment, lo, hi [3]float64, rho float64) (clear, inBounds bool) {
	for k := range lo {
		lo[k], hi[k] = lo[k]-rho, hi[k]+rho
	}
	return e.Clears(geom.AABB{Lo: lo[:], Hi: hi[:]})
}

// lerpFree is PathFreeBatch on the lerp from a to b in steps steps, with
// the path's swept bound in front of the pose, read from its two endpoint
// rows before any row exists: row 0 and row steps, a + 1·(b − a), bound
// every row between them per column (DESIGN §9). The builtin min and max
// let a NaN poison the range; a NaN or infinite angle (x − x is then NaN)
// leaves the bound unused. An edge whose widened range clears every
// obstacle inside Bounds is billed the all-free count with no row
// appended. Any other is lerped into bt: if the range clears every
// obstacle it runs the bounds sweep alone (boundsFree), else the posed
// sweeps (posedFree).
func (r RigidBody) lerpFree(e *env.Environment, a, b Config, steps int, bt *Batch) (bool, int) {
	np := len(r.BodyPoints)
	if np == 0 {
		return true, 0
	}
	rho := r.reach()
	var fin float64
	var lo, hi [3]float64
	for k := 0; k < 6; k++ {
		last := a[k] + (b[k] - a[k])
		fin += a[k] - a[k] + last - last
		if k < 3 {
			lo[k], hi[k] = min(a[k], last), max(a[k], last)
		}
	}
	clear := false
	if fin == 0 {
		var inBounds bool
		if clear, inBounds = reachBox(e, lo, hi, rho); clear && inBounds {
			return true, steps * (3*np - 1) * len(e.Obstacles)
		}
	}
	bt.appendLerps(a, b, steps)
	if clear {
		return r.boundsFree(e, bt, rho)
	}
	return r.posedFree(e, bt)
}

// PathFreeBatch implements Robot: every row is posed and swept. The
// swept bound lives in LocalPlanBatch (lerpFree), the one caller that
// knows its rows are a lerp and can bound them from two of them.
func (r RigidBody) PathFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	if len(r.BodyPoints) == 0 || bt.n < 2 {
		return true, 0
	}
	return r.posedFree(e, bt)
}

// boundsFree validates block A's n ≥ 2 rows for a body of np ≥ 1 probes
// and reach rho whose swept bound clears every obstacle: the bounds sweep
// alone, row by row. A row whose own reach box lies inside Bounds is
// skipped, any other is posed alone and its probes checked with
// InBoundsSoA's comparisons; the first probe out returns (false, 0), as
// CheckPointsSoA does, and otherwise the path bills what the three
// sweeps bill on an all-free path.
func (r RigidBody) boundsFree(e *env.Environment, bt *Batch, rho float64) (bool, int) {
	np := len(r.BodyPoints)
	lo, hi := e.Bounds.Lo, e.Bounds.Hi
	bt.wa = sizeCols(bt.wa, 3, np)
	for i := 1; i < bt.n; i++ {
		x, y, z := bt.a[0][i], bt.a[1][i], bt.a[2][i]
		if lo[0] <= x-rho && x+rho <= hi[0] && lo[1] <= y-rho && y+rho <= hi[1] &&
			lo[2] <= z-rho && z+rho <= hi[2] {
			continue
		}
		r.poseRow(bt, i, bt.wa[0], bt.wa[1], bt.wa[2])
		if !e.InBoundsSoA(bt.wa, np) {
			return false, 0
		}
	}
	// np points, np-1 spokes and np steps for each configuration 1..n-1.
	return true, (bt.n - 1) * (3*np - 1) * len(e.Obstacles)
}

// posedFree validates block A's n ≥ 2 rows for a body of np ≥ 1 probes:
// the probe points of configurations 1..n-1 are checked in one SoA
// sweep, their center→probe spokes in a second, and every probe's
// step-to-step segment in a third, all over the one posed block.
func (r RigidBody) posedFree(e *env.Environment, bt *Batch) (bool, int) {
	np := len(r.BodyPoints)
	bt.wa = r.bodyPointsInto(bt, bt.wa)
	free, tests := bt.pointsFree(e, bt.wa, np)
	if !free {
		return false, tests
	}
	m := (bt.n - 1) * (np - 1)
	bt.wb = sizeCols(bt.wb, 3, m)
	bt.wc = sizeCols(bt.wc, 3, m)
	for k := 0; k < 3; k++ {
		posed, centers, probes := bt.wa[k], bt.wb[k], bt.wc[k]
		j := 0
		for base := np; base < bt.n*np; base += np {
			c := posed[base]
			for _, v := range posed[base+1 : base+np] {
				centers[j], probes[j] = c, v
				j++
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, m, &bt.esc)
	if tests += stests; !sfree {
		return false, tests
	}
	efree, etests := bt.stepsFree(e, bt.wa, np)
	return efree, tests + etests
}

// jointColumnsInto poses the chain's joint positions for every
// configuration of block A, config-major (config i's joint j at column
// index i*(len(l.LinkLen)+1)+j), matching jointPositionsInto bit for
// bit.
func (l Linkage) jointColumnsInto(bt *Batch, dst [][]float64) [][]float64 {
	dst = resetCols(dst, 2)
	for i := 0; i < bt.n; i++ {
		x, y := l.Base[0], l.Base[1]
		dst[0] = append(dst[0], x)
		dst[1] = append(dst[1], y)
		for j, length := range l.LinkLen {
			x = x + length*math.Cos(bt.a[j][i])
			y = y + length*math.Sin(bt.a[j][i])
			dst[0] = append(dst[0], x)
			dst[1] = append(dst[1], y)
		}
	}
	return dst
}

// PathFreeBatch implements Robot: the joints of configurations 1..n-1
// are point-checked in one sweep and their link bodies segment-swept in
// another; then the probe points interpolated along each link of every
// configuration sweep one segment per step, as EdgeFree's do.
func (l Linkage) PathFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nj := len(l.LinkLen) + 1
	if bt.n < 2 {
		return true, 0
	}
	bt.wa = l.jointColumnsInto(bt, bt.wa)
	free, tests := bt.pointsFree(e, bt.wa, nj)
	if !free {
		return false, tests
	}
	bt.wb = resetCols(bt.wb, 2)
	bt.wc = resetCols(bt.wc, 2)
	for i := 1; i < bt.n; i++ {
		base := i * nj
		for j := 0; j+1 < nj; j++ {
			for k := 0; k < 2; k++ {
				bt.wb[k] = append(bt.wb[k], bt.wa[k][base+j])
				bt.wc[k] = append(bt.wc[k], bt.wa[k][base+j+1])
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, (bt.n-1)*(nj-1), &bt.esc)
	if tests += stests; !sfree {
		return false, tests
	}
	np := l.probes()
	bt.wd = resetCols(bt.wd, 2)
	for i := 0; i < bt.n; i++ {
		base := i * nj
		for j := 0; j+1 < nj; j++ {
			for p := 0; p <= np; p++ {
				t := float64(p) / float64(np)
				for k := 0; k < 2; k++ {
					a0 := bt.wa[k][base+j]
					bt.wd[k] = append(bt.wd[k], a0+t*(bt.wa[k][base+j+1]-a0))
				}
			}
		}
	}
	efree, etests := bt.stepsFree(e, bt.wd, (nj-1)*(np+1))
	return efree, tests + etests
}

// outlineColumnsInto poses the outline for every configuration of block
// A, config-major, matching placedInto bit for bit.
func (r RigidBody2D) outlineColumnsInto(bt *Batch, dst [][]float64) [][]float64 {
	dst = resetCols(dst, 2)
	for i := 0; i < bt.n; i++ {
		sin, cos := math.Sincos(bt.a[2][i])
		x, y := bt.a[0][i], bt.a[1][i]
		for _, v := range r.Outline {
			dst[0] = append(dst[0], x+v[0]*cos-v[1]*sin)
			dst[1] = append(dst[1], y+v[0]*sin+v[1]*cos)
		}
	}
	return dst
}

// PathFreeBatch implements Robot: the outline vertices of configurations
// 1..n-1 are point-checked in one sweep and their outline edges (with
// wraparound) segment-swept in another; then every vertex sweeps one
// segment per step.
func (r RigidBody2D) PathFreeBatch(e *env.Environment, bt *Batch) (bool, int) {
	nv := len(r.Outline)
	if nv == 0 || bt.n < 2 {
		return true, 0
	}
	bt.wa = r.outlineColumnsInto(bt, bt.wa)
	free, tests := bt.pointsFree(e, bt.wa, nv)
	if !free {
		return false, tests
	}
	bt.wb = resetCols(bt.wb, 2)
	bt.wc = resetCols(bt.wc, 2)
	for i := 1; i < bt.n; i++ {
		base := i * nv
		for v := 0; v < nv; v++ {
			for k := 0; k < 2; k++ {
				bt.wb[k] = append(bt.wb[k], bt.wa[k][base+v])
				bt.wc[k] = append(bt.wc[k], bt.wa[k][base+(v+1)%nv])
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, (bt.n-1)*nv, &bt.esc)
	if tests += stests; !sfree {
		return false, tests
	}
	efree, etests := bt.stepsFree(e, bt.wa, nv)
	return efree, tests + etests
}

// appendLerps adds the path's rows a + (i/steps)·(b − a), i = 0..steps,
// to block A.
func (bt *Batch) appendLerps(a, b Config, steps int) {
	for i := 0; i <= steps; i++ {
		bt.AppendLerp(a, b, float64(i)/float64(steps))
	}
}

// LocalPlanBatch is the batched local planner: the path's configurations
// a = q_0, q_1, …, q_steps = b are laid out in the batch's SoA block and
// validated in one robot pass (PathFreeBatch), which poses each of them
// once. Obstacle-major iteration inside its sweeps amortizes interface
// dispatch across the path, and each sweep fails fast on the first hit.
// The start is the edge's already-validated endpoint: posed for the
// first step, neither checked nor counted. It goes through AppendLerp
// like every other configuration, as a + 0·(b-a), which is a itself up
// to the sign of a zero whenever b-a is finite. A rigid body's edge is
// first bounded from its two endpoint rows (lerpFree): an edge whose
// bound clears the world is billed without a row appended or posed.
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
	var free bool
	var tests int
	if body, ok := s.Robot.(RigidBody); ok {
		free, tests = body.lerpFree(s.Env, a, b, steps, bt)
	} else {
		bt.appendLerps(a, b, steps)
		free, tests = s.Robot.PathFreeBatch(s.Env, bt)
	}
	if c != nil {
		// Charged whatever the verdict: on acceptance the totals are exactly
		// what the scalar planner counts (steps validity checks, all tests).
		c.LPSteps += int64(steps)
		c.CDCalls += int64(steps)
		c.CDObstacle += int64(tests)
	}
	return free
}

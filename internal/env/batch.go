package env

import "parmp/internal/geom"

// BatchScratch holds the gather buffers the SoA batch queries fall back
// to when an obstacle type has no column kernel. The zero value is ready
// to use; a scratch is not safe for concurrent use.
type BatchScratch struct {
	pa, pb geom.Vec
}

func growVec(v geom.Vec, d int) geom.Vec {
	if cap(v) < d {
		return make(geom.Vec, d)
	}
	return v[:d]
}

// gatherA copies item i of cols into the scratch's first buffer.
func (sc *BatchScratch) gatherA(cols [][]float64, i, d int) geom.Vec {
	sc.pa = growVec(sc.pa, d)
	for k := 0; k < d; k++ {
		sc.pa[k] = cols[k][i]
	}
	return sc.pa
}

// gatherB copies item i of cols into the scratch's second buffer.
func (sc *BatchScratch) gatherB(cols [][]float64, i, d int) geom.Vec {
	sc.pb = growVec(sc.pb, d)
	for k := 0; k < d; k++ {
		sc.pb[k] = cols[k][i]
	}
	return sc.pb
}

// CheckPointsSoA is the batched CheckPoint: point i is
// (cols[0][i], …, cols[d-1][i]) for i < n, with d = e.Dim(). It reports
// whether every point is inside bounds and outside every obstacle,
// along with the number of obstacle containment tests performed.
//
// Iteration is obstacle-major: one bounds sweep over all points, then
// one sweep per obstacle with the obstacle's concrete type resolved
// once per sweep instead of once per point, so the inner loops run over
// contiguous per-dimension columns with no interface dispatch. The
// batch fails fast on the first hit.
//
// Parity contract with the scalar loop: the accept/reject outcome is
// identical to running CheckPoint over every point, and on an all-free
// batch the test count equals the sum of the scalar counts exactly
// (n × len(Obstacles)). A rejecting batch may stop at a different count
// than the point-major sweep — the same contract the fail-fast local
// planner already documents for rejected edges.
func (e *Environment) CheckPointsSoA(cols [][]float64, n int, sc *BatchScratch) (free bool, tests int) {
	if n == 0 {
		return true, 0
	}
	// Bounds sweep first: an out-of-bounds point costs no obstacle
	// tests, exactly as in CheckPoint.
	if !e.InBoundsSoA(cols, n) {
		return false, 0
	}
	d := e.Dim()
	for _, o := range e.Obstacles {
		switch ob := o.(type) {
		case BoxObstacle:
			if hit, i := boxContainsAny(ob.Box, cols, n); hit {
				return false, tests + i + 1
			}
		case SphereObstacle:
			if hit, i := sphereContainsAny(ob, cols, n); hit {
				return false, tests + i + 1
			}
		default:
			for i := 0; i < n; i++ {
				if o.Contains(sc.gatherA(cols, i, d)) {
					return false, tests + i + 1
				}
			}
		}
		tests += n
	}
	return true, tests
}

// InBoundsSoA reports whether points 0..n-1 of cols all lie inside
// Bounds: CheckPointsSoA's bounds sweep, which rejects with no obstacle
// test.
func (e *Environment) InBoundsSoA(cols [][]float64, n int) bool {
	for k := 0; k < e.Dim(); k++ {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		for _, v := range cols[k][:n] {
			if v < lo || v > hi {
				return false
			}
		}
	}
	return true
}

// Clears reports whether the box swept lies inside Bounds (inBounds) and
// beyond a face of every obstacle as the batched kernels cull (clear):
// every obstacle is a box whose axes geom.CullFaces admits, and for each
// some axis of swept is a geom.SlabCull miss after guarded axes. Then
// CheckPointsSoA and SegmentsFreeSoA find no hit among points and
// segments inside swept and count their tests as on an all-free batch.
// Any other obstacle type, a refused box, a NaN bound or one reaching ±M
// answers clear = false.
func (e *Environment) Clears(swept geom.AABB) (clear, inBounds bool) {
	if len(swept.Lo) != e.Dim() {
		return false, false
	}
	inBounds = true
	for k, lo := range swept.Lo {
		inBounds = inBounds && e.Bounds.Lo[k] <= lo && swept.Hi[k] <= e.Bounds.Hi[k]
	}
	for _, o := range e.Obstacles {
		if b, ok := o.(BoxObstacle); !ok || !beyondFace(b.Box, swept) {
			return false, inBounds
		}
	}
	return true, inBounds
}

// beyondFace is Clears' test of one box: the cull chain of
// boxSegmentHitsAny, run on the box swept as if it were a segment.
func beyondFace(b, swept geom.AABB) bool {
	if d := len(b.Lo); d != len(swept.Lo) || d != 2 && d != 3 {
		return false
	}
	beyond, guarded := false, true
	for k := range b.Lo {
		loG, hiG, ok := geom.CullFaces(b.Lo[k], b.Hi[k])
		if !ok {
			return false
		}
		if guarded && !beyond {
			beyond, guarded = geom.SlabCull(loG, hiG, swept.Lo[k], swept.Hi[k])
		}
	}
	return beyond
}

// SegmentsFreeSoA is the batched SegmentFree: segment i runs from
// (acols[0][i], …) to (bcols[0][i], …) for i < n. Bounds containment of
// the endpoints is the caller's concern, as with SegmentFree. The
// sweep is obstacle-major and fails fast on the first hit; the parity
// contract matches CheckPointsSoA (identical outcome, test counts sum
// exactly on an all-free batch).
func (e *Environment) SegmentsFreeSoA(acols, bcols [][]float64, n int, sc *BatchScratch) (free bool, tests int) {
	if n == 0 {
		return true, 0
	}
	d := e.Dim()
	for _, o := range e.Obstacles {
		switch ob := o.(type) {
		case BoxObstacle:
			if hit, i := boxSegmentHitsAny(ob.Box, acols, bcols, n); hit {
				return false, tests + i + 1
			}
		case SphereObstacle:
			if hit, i := sphereSegmentHitsAny(ob, acols, bcols, n); hit {
				return false, tests + i + 1
			}
		default:
			for i := 0; i < n; i++ {
				if o.SegmentHits(sc.gatherA(acols, i, d), sc.gatherB(bcols, i, d)) {
					return false, tests + i + 1
				}
			}
		}
		tests += n
	}
	return true, tests
}

// boxContainsAny returns the first batch item inside b (boundary
// inclusive, mirroring AABB.Contains).
func boxContainsAny(b geom.AABB, cols [][]float64, n int) (bool, int) {
	switch len(b.Lo) {
	case 2:
		xs, ys := cols[0][:n], cols[1][:n]
		x0, x1, y0, y1 := b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1]
		for i := 0; i < n; i++ {
			if xs[i] >= x0 && xs[i] <= x1 && ys[i] >= y0 && ys[i] <= y1 {
				return true, i
			}
		}
	case 3:
		xs, ys, zs := cols[0][:n], cols[1][:n], cols[2][:n]
		x0, x1, y0, y1, z0, z1 := b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2]
		for i := 0; i < n; i++ {
			if xs[i] >= x0 && xs[i] <= x1 && ys[i] >= y0 && ys[i] <= y1 && zs[i] >= z0 && zs[i] <= z1 {
				return true, i
			}
		}
	default:
		for i := 0; i < n; i++ {
			inside := true
			for k := range b.Lo {
				if cols[k][i] < b.Lo[k] || cols[k][i] > b.Hi[k] {
					inside = false
					break
				}
			}
			if inside {
				return true, i
			}
		}
	}
	return false, 0
}

// sphereContainsAny returns the first batch item inside o, with the
// same squared-distance arithmetic as SphereObstacle.Contains.
func sphereContainsAny(o SphereObstacle, cols [][]float64, n int) (bool, int) {
	r2 := o.Radius * o.Radius
	switch len(o.Center) {
	case 2:
		xs, ys := cols[0][:n], cols[1][:n]
		cx, cy := o.Center[0], o.Center[1]
		for i := 0; i < n; i++ {
			dx := xs[i] - cx
			dy := ys[i] - cy
			if dx*dx+dy*dy <= r2 {
				return true, i
			}
		}
	case 3:
		xs, ys, zs := cols[0][:n], cols[1][:n], cols[2][:n]
		cx, cy, cz := o.Center[0], o.Center[1], o.Center[2]
		for i := 0; i < n; i++ {
			dx := xs[i] - cx
			dy := ys[i] - cy
			dz := zs[i] - cz
			if dx*dx+dy*dy+dz*dz <= r2 {
				return true, i
			}
		}
	default:
		for i := 0; i < n; i++ {
			var s float64
			for k := range o.Center {
				d := cols[k][i] - o.Center[k]
				s += d * d
			}
			if s <= r2 {
				return true, i
			}
		}
	}
	return false, 0
}

// boxSegmentHitsAny returns the first batch segment intersecting b, with
// AABB.SegmentIntersects' answer for every segment. In 2 and 3
// dimensions, when geom.CullFaces admits every axis of b, a segment
// first meets geom.SlabCull axis by axis, in the slab's order: a culled
// segment costs compares only. Every other segment steps through
// geom.Slab.
func boxSegmentHitsAny(b geom.AABB, acols, bcols [][]float64, n int) (bool, int) {
	switch len(b.Lo) {
	case 2:
		x0, x1, xok := geom.CullFaces(b.Lo[0], b.Hi[0])
		y0, y1, yok := geom.CullFaces(b.Lo[1], b.Hi[1])
		if !xok || !yok {
			break
		}
		xa, ya, xb, yb := acols[0][:n], acols[1][:n], bcols[0][:n], bcols[1][:n]
		for i := 0; i < n; i++ {
			miss, guarded := geom.SlabCull(x0, x1, xa[i], xb[i])
			if !miss && guarded {
				miss, _ = geom.SlabCull(y0, y1, ya[i], yb[i])
			}
			if !miss && slabHits(b, acols, bcols, i) {
				return true, i
			}
		}
		return false, 0
	case 3:
		x0, x1, xok := geom.CullFaces(b.Lo[0], b.Hi[0])
		y0, y1, yok := geom.CullFaces(b.Lo[1], b.Hi[1])
		z0, z1, zok := geom.CullFaces(b.Lo[2], b.Hi[2])
		if !xok || !yok || !zok {
			break
		}
		xa, ya, za := acols[0][:n], acols[1][:n], acols[2][:n]
		xb, yb, zb := bcols[0][:n], bcols[1][:n], bcols[2][:n]
		for i := 0; i < n; i++ {
			miss, guarded := geom.SlabCull(x0, x1, xa[i], xb[i])
			if !miss && guarded {
				miss, guarded = geom.SlabCull(y0, y1, ya[i], yb[i])
				if !miss && guarded {
					miss, _ = geom.SlabCull(z0, z1, za[i], zb[i])
				}
			}
			if !miss && slabHits(b, acols, bcols, i) {
				return true, i
			}
		}
		return false, 0
	}
	for i := 0; i < n; i++ {
		if slabHits(b, acols, bcols, i) {
			return true, i
		}
	}
	return false, 0
}

// slabHits steps segment i through geom.Slab axis by axis, exactly as
// AABB.SegmentIntersects does behind its cull.
func slabHits(b geom.AABB, acols, bcols [][]float64, i int) bool {
	tMin, tMax, hit := 0.0, 1.0, true
	for k := 0; k < len(b.Lo) && hit; k++ {
		av := acols[k][i]
		tMin, tMax, hit = geom.Slab(b.Lo[k], b.Hi[k], av, bcols[k][i]-av, tMin, tMax)
	}
	return hit
}

// sphereSegmentHitsAny returns the first batch segment passing through
// o, with the same closest-point arithmetic as
// SphereObstacle.SegmentHits (so results agree bit for bit).
func sphereSegmentHitsAny(o SphereObstacle, acols, bcols [][]float64, n int) (bool, int) {
	d := len(o.Center)
	r2 := o.Radius * o.Radius
	for i := 0; i < n; i++ {
		var den, dot float64
		for k := 0; k < d; k++ {
			ab := bcols[k][i] - acols[k][i]
			den += ab * ab
			ca := o.Center[k] - acols[k][i]
			dot += ab * ca
		}
		t := 0.0
		if den > 0 {
			t = dot / den
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
		}
		var dist2 float64
		for k := 0; k < d; k++ {
			av := acols[k][i]
			closest := av + t*(bcols[k][i]-av)
			dc := closest - o.Center[k]
			dist2 += dc * dc
		}
		if dist2 <= r2 {
			return true, i
		}
	}
	return false, 0
}

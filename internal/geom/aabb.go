package geom

import (
	"fmt"
	"math"
)

// AABB is a d-dimensional axis-aligned box [Lo, Hi].
type AABB struct {
	Lo, Hi Vec
}

// NewAABB returns the box spanning [lo, hi]. It panics if dimensions differ
// or any lo component exceeds the matching hi component.
func NewAABB(lo, hi Vec) AABB {
	if len(lo) != len(hi) {
		panic("geom: AABB corner dimensions differ")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: AABB lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i]))
		}
	}
	return AABB{Lo: lo.Clone(), Hi: hi.Clone()}
}

// Box2 returns a 2D box.
func Box2(x0, y0, x1, y1 float64) AABB {
	return NewAABB(V(x0, y0), V(x1, y1))
}

// Box3 returns a 3D box.
func Box3(x0, y0, z0, x1, y1, z1 float64) AABB {
	return NewAABB(V(x0, y0, z0), V(x1, y1, z1))
}

// Dim returns the box dimension.
func (b AABB) Dim() int { return len(b.Lo) }

// Contains reports whether p lies inside b (boundary inclusive).
func (b AABB) Contains(p Vec) bool {
	for i := range b.Lo {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of b.
func (b AABB) Center() Vec {
	c := make(Vec, len(b.Lo))
	for i := range c {
		c[i] = 0.5 * (b.Lo[i] + b.Hi[i])
	}
	return c
}

// Extent returns the side lengths of b.
func (b AABB) Extent() Vec {
	e := make(Vec, len(b.Lo))
	for i := range e {
		e[i] = b.Hi[i] - b.Lo[i]
	}
	return e
}

// Volume returns the d-dimensional volume of b.
func (b AABB) Volume() float64 {
	v := 1.0
	for i := range b.Lo {
		v *= b.Hi[i] - b.Lo[i]
	}
	return v
}

// Intersects reports whether b and o overlap (boundary touching counts).
func (b AABB) Intersects(o AABB) bool {
	for i := range b.Lo {
		if b.Hi[i] < o.Lo[i] || o.Hi[i] < b.Lo[i] {
			return false
		}
	}
	return true
}

// IntersectionVolume returns the volume of the overlap of b and o, or 0 if
// they are disjoint.
func (b AABB) IntersectionVolume(o AABB) float64 {
	v := 1.0
	for i := range b.Lo {
		lo := math.Max(b.Lo[i], o.Lo[i])
		hi := math.Min(b.Hi[i], o.Hi[i])
		if lo >= hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Clamp returns p with each component clamped into b.
func (b AABB) Clamp(p Vec) Vec {
	c := make(Vec, len(p))
	for i := range p {
		c[i] = math.Min(math.Max(p[i], b.Lo[i]), b.Hi[i])
	}
	return c
}

// DistanceTo returns the Euclidean distance from p to the closest point of
// b; 0 if p is inside.
func (b AABB) DistanceTo(p Vec) float64 {
	var s float64
	for i := range p {
		if p[i] < b.Lo[i] {
			d := b.Lo[i] - p[i]
			s += d * d
		} else if p[i] > b.Hi[i] {
			d := p[i] - b.Hi[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// Slab is one axis of the slab method: it clips the parameter interval
// [tMin, tMax] of the line a + t·d to the slab [lo, hi] and reports
// whether the interval is still non-empty. A direction below 1e-15 in
// magnitude counts as parallel, leaving the interval as it is iff a lies
// in the slab. SegmentIntersects, RayEnter and env's batched segment
// kernel all step through it, so they agree bit for bit. The builtin
// min and max inline where math.Min and math.Max are calls, and return
// what those do (signed zeros included) unless an operand is NaN and
// the other the infinity math's versions let win; a NaN needs a NaN or
// overflowing coordinate, which no finite world of sane size produces.
func Slab(lo, hi, a, d, tMin, tMax float64) (float64, float64, bool) {
	if math.Abs(d) < 1e-15 {
		return tMin, tMax, !(a < lo || a > hi)
	}
	t1 := (lo - a) / d
	t2 := (hi - a) / d
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	tMin, tMax = max(tMin, t1), min(tMax, t2)
	return tMin, tMax, !(tMin > tMax)
}

// The slab cull trusts faces and coordinates inside (−M, M), M = 2^20,
// and culls an axis only when both ends lie beyond a face by g = 2^-28.
const (
	cullRange = 1 << 20
	cullGap   = 0x1p-28
)

// CullFaces returns the faces of the slab [lo, hi] pushed out by g, for
// SlabCull, and whether the cull applies to the slab: lo ≤ hi, both
// inside (−M, M).
func CullFaces(lo, hi float64) (loG, hiG float64, ok bool) {
	return lo - cullGap, hi + cullGap, lo <= hi && lo > -cullRange && hi < cullRange
}

// SlabCull is the compare-only front of Slab for the coordinates a and b
// of a segment's ends on one axis, against faces from CullFaces. guarded:
// both lie inside (−M, M), which NaN and ±Inf do not. miss: both lie in
// (−M, loG) or both in (hiG, M). A segment misses the box if some axis
// reports miss and every axis before it reported guarded.
//
// A miss is exact. Ends below: lo − b > g − 2^-33 (loG rounds by half an
// ulp of a face under M) and |b − a| < 2M, so for b > a Slab's
// t1 = fl(fl(lo−a)/fl(b−a)) ≥ (1 + 15·2^-53)(1 − 3·2^-53) > 1 ≥ tMax;
// for b < a both quotients are negative, tMax < 0 ≤ tMin; a parallel
// axis rejects as a < lo. Ends above are the mirror image. Only a NaN
// interval escapes, and only a NaN or infinite coordinate on an earlier
// axis makes one: hence the guarded chain.
func SlabCull(loG, hiG, a, b float64) (miss, guarded bool) {
	if a < loG && b < loG && a > -cullRange && b > -cullRange ||
		a > hiG && b > hiG && a < cullRange && b < cullRange {
		return true, true
	}
	return false, math.Abs(a) < cullRange && math.Abs(b) < cullRange
}

// SegmentIntersects reports whether the segment a→b2 passes through the box,
// using the slab method behind SlabCull. Touching the boundary counts as
// intersecting.
func (b AABB) SegmentIntersects(a, b2 Vec) bool {
	for i := range b.Lo {
		loG, hiG, ok := CullFaces(b.Lo[i], b.Hi[i])
		if !ok {
			break
		}
		miss, guarded := SlabCull(loG, hiG, a[i], b2[i])
		if miss {
			return false
		}
		if !guarded {
			break
		}
	}
	tMin, tMax, ok := 0.0, 1.0, true
	for i := 0; i < len(b.Lo) && ok; i++ {
		tMin, tMax, ok = Slab(b.Lo[i], b.Hi[i], a[i], b2[i]-a[i], tMin, tMax)
	}
	return ok
}

// RayEnter returns the parameter t >= 0 at which the ray origin+t*dir first
// enters the box, and ok=false if the ray misses it. A ray starting inside
// returns t=0.
func (b AABB) RayEnter(origin, dir Vec) (float64, bool) {
	tMin, tMax, ok := 0.0, math.Inf(1), true
	for i := 0; i < len(b.Lo) && ok; i++ {
		tMin, tMax, ok = Slab(b.Lo[i], b.Hi[i], origin[i], dir[i], tMin, tMax)
	}
	if !ok {
		return 0, false
	}
	return tMin, true
}

// String formats the box as "[lo..hi]".
func (b AABB) String() string {
	return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi)
}

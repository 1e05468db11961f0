package env

import (
	"parmp/internal/geom"
)

// ConvexPolygon is a solid convex polygon obstacle in a 2D workspace,
// defined by vertices in counter-clockwise order. It extends the obstacle
// vocabulary beyond axis-aligned boxes for house/maze style scenes.
type ConvexPolygon struct {
	Verts []geom.Vec
}

// NewConvexPolygon validates the vertex list: at least 3 CCW-ordered 2D
// vertices forming a convex chain. ok is false otherwise.
func NewConvexPolygon(verts []geom.Vec) (ConvexPolygon, bool) {
	if len(verts) < 3 {
		return ConvexPolygon{}, false
	}
	for _, v := range verts {
		if v.Dim() != 2 {
			return ConvexPolygon{}, false
		}
	}
	n := len(verts)
	for i := 0; i < n; i++ {
		a, b, c := verts[i], verts[(i+1)%n], verts[(i+2)%n]
		if cross2(b.Sub(a), c.Sub(b)) < 0 {
			return ConvexPolygon{}, false // clockwise turn: not convex CCW
		}
	}
	return ConvexPolygon{Verts: verts}, true
}

func cross2(u, v geom.Vec) float64 { return u[0]*v[1] - u[1]*v[0] }

// Contains implements Obstacle: p is inside when it is on the left of (or
// on) every edge.
func (o ConvexPolygon) Contains(p geom.Vec) bool {
	n := len(o.Verts)
	for i := 0; i < n; i++ {
		a, b := o.Verts[i], o.Verts[(i+1)%n]
		if cross2(b.Sub(a), p.Sub(a)) < 0 {
			return false
		}
	}
	return true
}

// Bounds implements Obstacle.
func (o ConvexPolygon) Bounds() geom.AABB {
	lo := o.Verts[0].Clone()
	hi := o.Verts[0].Clone()
	for _, v := range o.Verts[1:] {
		for d := 0; d < 2; d++ {
			if v[d] < lo[d] {
				lo[d] = v[d]
			}
			if v[d] > hi[d] {
				hi[d] = v[d]
			}
		}
	}
	return geom.AABB{Lo: lo, Hi: hi}
}

// SegmentHits implements Obstacle: the segment hits when either endpoint
// is inside or it crosses any polygon edge.
func (o ConvexPolygon) SegmentHits(a, b geom.Vec) bool {
	if o.Contains(a) || o.Contains(b) {
		return true
	}
	n := len(o.Verts)
	for i := 0; i < n; i++ {
		if segmentsIntersect(a, b, o.Verts[i], o.Verts[(i+1)%n]) {
			return true
		}
	}
	return false
}

// segmentsIntersect reports proper or touching intersection of segments
// p1p2 and p3p4.
func segmentsIntersect(p1, p2, p3, p4 geom.Vec) bool {
	d1 := cross2(p4.Sub(p3), p1.Sub(p3))
	d2 := cross2(p4.Sub(p3), p2.Sub(p3))
	d3 := cross2(p2.Sub(p1), p3.Sub(p1))
	d4 := cross2(p2.Sub(p1), p4.Sub(p1))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	onSeg := func(p, q, r geom.Vec) bool {
		// q collinear with pr: is q within the bounding box of pr?
		return min(p[0], r[0]) <= q[0] && q[0] <= max(p[0], r[0]) &&
			min(p[1], r[1]) <= q[1] && q[1] <= max(p[1], r[1])
	}
	switch {
	case d1 == 0 && onSeg(p3, p1, p4):
		return true
	case d2 == 0 && onSeg(p3, p2, p4):
		return true
	case d3 == 0 && onSeg(p1, p3, p2):
		return true
	case d4 == 0 && onSeg(p1, p4, p2):
		return true
	}
	return false
}

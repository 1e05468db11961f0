package env

import (
	"math"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

func triangle() ConvexPolygon {
	p, ok := NewConvexPolygon([]geom.Vec{geom.V(0, 0), geom.V(1, 0), geom.V(0.5, 1)})
	if !ok {
		panic("triangle invalid")
	}
	return p
}

func TestNewConvexPolygonValidation(t *testing.T) {
	if _, ok := NewConvexPolygon([]geom.Vec{geom.V(0, 0), geom.V(1, 0)}); ok {
		t.Fatal("two vertices should fail")
	}
	// Clockwise square should fail (CCW required).
	if _, ok := NewConvexPolygon([]geom.Vec{
		geom.V(0, 0), geom.V(0, 1), geom.V(1, 1), geom.V(1, 0),
	}); ok {
		t.Fatal("clockwise polygon should fail")
	}
	// Non-convex chevron should fail.
	if _, ok := NewConvexPolygon([]geom.Vec{
		geom.V(0, 0), geom.V(2, 0), geom.V(1, 0.2), geom.V(1, 2),
	}); ok {
		t.Fatal("non-convex polygon should fail")
	}
	// 3D vertices should fail.
	if _, ok := NewConvexPolygon([]geom.Vec{
		geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0),
	}); ok {
		t.Fatal("3D vertices should fail")
	}
}

func TestPolygonContains(t *testing.T) {
	tri := triangle()
	if !tri.Contains(geom.V(0.5, 0.3)) {
		t.Fatal("centroid-ish point should be inside")
	}
	if tri.Contains(geom.V(0.05, 0.9)) {
		t.Fatal("outside point contained")
	}
	if !tri.Contains(geom.V(0.5, 0)) {
		t.Fatal("edge point should count as inside")
	}
}

func TestPolygonSegmentHits(t *testing.T) {
	tri := triangle()
	if !tri.SegmentHits(geom.V(-1, 0.3), geom.V(2, 0.3)) {
		t.Fatal("crossing segment should hit")
	}
	if tri.SegmentHits(geom.V(-1, 2), geom.V(2, 2)) {
		t.Fatal("segment above apex should miss")
	}
	if !tri.SegmentHits(geom.V(0.5, 0.5), geom.V(0.5, 0.4)) {
		t.Fatal("segment inside should hit")
	}
	if !tri.SegmentHits(geom.V(0.5, 2), geom.V(0.5, 0.3)) {
		t.Fatal("segment ending inside should hit")
	}
}

func TestPolygonVolumeAndBounds(t *testing.T) {
	tri := triangle()
	b := tri.Bounds()
	if !b.Lo.Equal(geom.V(0, 0), 1e-12) || !b.Hi.Equal(geom.V(1, 1), 1e-12) {
		t.Fatalf("bounds = %v", b)
	}
}

func TestPolygonMatchesBoxSemantics(t *testing.T) {
	// A CCW square polygon must agree with the equivalent BoxObstacle on
	// random points and segments.
	sq, ok := NewConvexPolygon([]geom.Vec{
		geom.V(0.3, 0.3), geom.V(0.7, 0.3), geom.V(0.7, 0.7), geom.V(0.3, 0.7),
	})
	if !ok {
		t.Fatal("square polygon invalid")
	}
	box := BoxObstacle{Box: geom.Box2(0.3, 0.3, 0.7, 0.7)}
	r := rng.New(9)
	for i := 0; i < 2000; i++ {
		p := geom.V(r.Float64(), r.Float64())
		if sq.Contains(p) != box.Contains(p) {
			t.Fatalf("containment mismatch at %v", p)
		}
	}
	for i := 0; i < 2000; i++ {
		a := geom.V(r.Float64(), r.Float64())
		b := geom.V(r.Float64(), r.Float64())
		if sq.SegmentHits(a, b) != box.SegmentHits(a, b) {
			t.Fatalf("segment mismatch %v -> %v", a, b)
		}
	}
}

func TestPolygonInEnvironment(t *testing.T) {
	tri := triangle()
	e := &Environment{Name: "poly", Bounds: unitBox(2), Obstacles: []Obstacle{tri}}
	if e.PointFree(geom.V(0.5, 0.3)) {
		t.Fatal("triangle interior should block")
	}
	// Blocked fraction via MC should approximate the triangle area.
	got := e.BlockedFraction(100000, 4)
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("blocked fraction = %v, want ~0.5", got)
	}
}

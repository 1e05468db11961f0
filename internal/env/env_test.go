package env

import (
	"math"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

func TestBoxObstacle(t *testing.T) {
	o := BoxObstacle{Box: geom.Box2(0.4, 0.4, 0.6, 0.6)}
	if !o.Contains(geom.V(0.5, 0.5)) {
		t.Fatal("center should collide")
	}
	if o.Contains(geom.V(0.1, 0.1)) {
		t.Fatal("far point should be free")
	}
	if !o.SegmentHits(geom.V(0, 0.5), geom.V(1, 0.5)) {
		t.Fatal("crossing segment should hit")
	}
	if o.SegmentHits(geom.V(0, 0.1), geom.V(1, 0.1)) {
		t.Fatal("passing segment should miss")
	}
}

func TestSphereObstacle(t *testing.T) {
	o := SphereObstacle{Center: geom.V(0.5, 0.5), Radius: 0.1}
	if !o.Contains(geom.V(0.55, 0.5)) || o.Contains(geom.V(0.7, 0.5)) {
		t.Fatal("containment wrong")
	}
	if !o.SegmentHits(geom.V(0, 0.5), geom.V(1, 0.5)) {
		t.Fatal("diameter segment should hit")
	}
	if o.SegmentHits(geom.V(0, 0), geom.V(1, 0)) {
		t.Fatal("distant segment should miss")
	}
	// Segment ending near but outside.
	if o.SegmentHits(geom.V(0, 0.8), geom.V(1, 0.8)) {
		t.Fatal("tangent-distance segment should miss")
	}
	b := o.Bounds()
	if !b.Lo.Equal(geom.V(0.4, 0.4), 1e-12) || !b.Hi.Equal(geom.V(0.6, 0.6), 1e-12) {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestCheckPoint(t *testing.T) {
	e := MedCube()
	free, tests := e.CheckPoint(geom.V(0.5, 0.5, 0.5))
	if free {
		t.Fatal("center of med-cube is inside the obstacle")
	}
	if tests != 1 {
		t.Fatalf("tests = %d", tests)
	}
	free, _ = e.CheckPoint(geom.V(0.05, 0.05, 0.05))
	if !free {
		t.Fatal("corner should be free")
	}
	free, tests = e.CheckPoint(geom.V(2, 2, 2))
	if free || tests != 0 {
		t.Fatal("out-of-bounds should fail with zero obstacle tests")
	}
}

func TestSegmentFree(t *testing.T) {
	e := MedCube()
	if free, _ := e.SegmentFree(geom.V(0, 0.5, 0.5), geom.V(1, 0.5, 0.5)); free {
		t.Fatal("segment through the cube should collide")
	}
	if free, _ := e.SegmentFree(geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.05, 0.05)); !free {
		t.Fatal("edge-hugging segment should be free")
	}
}

func TestBlockedFractions(t *testing.T) {
	cases := []struct {
		e    *Environment
		want float64
		tol  float64
	}{
		{MedCube(), 0.24, 1e-9},
		{SmallCube(), 0.06, 1e-9},
		{Free(), 0, 1e-12},
		{Mixed(), 0.60, 0.05},
		{Mixed30(), 0.30, 0.05},
	}
	for _, c := range cases {
		got := c.e.BlockedFraction(0, 1)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s blocked fraction = %v, want %v±%v", c.e.Name, got, c.want, c.tol)
		}
	}
}

func TestFreeVolumeInExact(t *testing.T) {
	e := Model2D(0.25) // square obstacle side 0.5 centered in unit square
	// Region covering exactly the obstacle.
	reg := geom.Box2(0.25, 0.25, 0.75, 0.75)
	if got := e.FreeVolumeIn(reg, 0, 1); math.Abs(got) > 1e-12 {
		t.Fatalf("fully-blocked region free volume = %v", got)
	}
	// Region in the open corner.
	reg = geom.Box2(0, 0, 0.2, 0.2)
	if got := e.FreeVolumeIn(reg, 0, 1); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("open region free volume = %v", got)
	}
	// Partially covered region: the obstacle [0.25,0.75]^2 overlaps it in
	// a 0.5 x 0.5 square.
	reg = geom.Box2(0.25, 0.25, 0.75, 1.0)
	want := reg.Volume() - 0.5*0.5
	if got := e.FreeVolumeIn(reg, 0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("half region free volume = %v, want %v", got, want)
	}
}

func TestFreeVolumeMonteCarloAgreesWithExact(t *testing.T) {
	// Force the MC path with a sphere obstacle and compare against the
	// analytic ball volume.
	e := &Environment{
		Name:   "mc",
		Bounds: unitBox(2),
		Obstacles: []Obstacle{
			SphereObstacle{Center: geom.V(0.5, 0.5), Radius: 0.2},
		},
	}
	got := e.FreeVolumeIn(e.Bounds, 200000, 3)
	want := 1 - math.Pi*0.04
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("MC free volume = %v, want %v", got, want)
	}
}

func TestMixedObstaclesDisjoint(t *testing.T) {
	e := Mixed()
	if !e.obstaclesDisjointBoxes() {
		t.Fatal("cluttered builder must produce disjoint boxes")
	}
	if len(e.Obstacles) < 10 {
		t.Fatalf("expected many obstacles, got %d", len(e.Obstacles))
	}
}

func TestRayDistanceToObstacle(t *testing.T) {
	e := MedCube()
	side := math.Pow(0.24, 1.0/3)
	// Ray from the face center straight at the cube.
	d := e.RayDistanceToObstacle(geom.V(0, 0.5, 0.5), geom.V(1, 0, 0))
	want := 0.5 - side/2
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("ray distance = %v, want %v", d, want)
	}
	// Ray missing the cube exits at the boundary.
	d = e.RayDistanceToObstacle(geom.V(0.01, 0.01, 0.01), geom.V(1, 0, 0))
	if math.Abs(d-0.99) > 1e-9 {
		t.Fatalf("boundary ray distance = %v", d)
	}
	// Free environment: always the boundary.
	d = Free().RayDistanceToObstacle(geom.V(0.5, 0.5, 0.5), geom.V(0, 1, 0))
	if math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("free ray distance = %v", d)
	}
}

func TestWallsHaveDoorways(t *testing.T) {
	e := Walls(3, 0.15)
	r := rng.New(5)
	// Doorway at x=0.25 is near y=0.2: a point there must be free.
	if !e.PointFree(geom.V(0.25, 0.2, r.Float64())) {
		t.Fatal("doorway should be free")
	}
	// Wall body must be blocked.
	if e.PointFree(geom.V(0.25, 0.6, 0.5)) {
		t.Fatal("wall interior should be blocked")
	}
}

func TestMaze2D(t *testing.T) {
	e := Maze2D(4, 0.2)
	if len(e.Obstacles) != 4 {
		t.Fatalf("expected 4 walls, got %d", len(e.Obstacles))
	}
	if !e.PointFree(geom.V(0.2, 0.05)) {
		t.Fatal("gap below first wall should be free")
	}
	if e.PointFree(geom.V(0.2, 0.9)) {
		t.Fatal("first wall should block the top")
	}
}

func TestCorner2DImbalanced(t *testing.T) {
	e := Corner2D()
	// The cluttered quadrant must have less free volume than the open one.
	clutter := e.FreeVolumeIn(geom.Box2(0.5, 0, 1, 0.5), 0, 1)
	open := e.FreeVolumeIn(geom.Box2(0, 0.5, 0.5, 1), 0, 1)
	if clutter >= open {
		t.Fatalf("clutter quadrant free=%v should be < open quadrant free=%v", clutter, open)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		e := ByName(name)
		if e == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if e.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, e.Name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
}

// TestEnvironmentTable holds the one table ByName and Names read: no
// name twice, every name builds its own world, an unknown name builds
// nothing, and the listing is the caller's to modify.
func TestEnvironmentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("environment %q listed twice", name)
		}
		seen[name] = true
		if e := ByName(name); e == nil || e.Name != name || len(e.Obstacles) == 0 && name != "free" {
			t.Errorf("ByName(%q) = %v, want that world", name, e)
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d environments listed, want the paper's 10", len(seen))
	}
	if ByName("") != nil || ByName("Med-Cube") != nil {
		t.Error("a name outside Names() must build nothing")
	}
	Names()[0] = "scribbled"
	if Names()[0] != "med-cube" {
		t.Error("Names must return a copy of the table's names")
	}
}

func TestEnvironmentString(t *testing.T) {
	s := MedCube().String()
	if s == "" {
		t.Fatal("String should not be empty")
	}
}

func TestWalls45(t *testing.T) {
	e := Walls45(3, 0.2)
	if len(e.Obstacles) == 0 {
		t.Fatal("no diagonal walls built")
	}
	// The first wall runs along x - y = -0.3 with a gap near y = 0.3.
	// A point on the wall line away from the gap must be blocked.
	if e.PointFree(geom.V(0.415, 0.7)) {
		t.Fatal("diagonal wall body should block")
	}
	// The gap itself must be free.
	if !e.PointFree(geom.V(0.015, 0.3)) {
		t.Fatal("gap should be free")
	}
	// Blocked fraction is modest but nonzero.
	frac := e.BlockedFraction(50000, 1)
	if frac <= 0.01 || frac > 0.3 {
		t.Fatalf("blocked fraction = %v", frac)
	}
}

func TestWalls45Plannable(t *testing.T) {
	// A PRM in walls-45 must find diagonal corridors navigable.
	e := ByName("walls-45")
	if e == nil {
		t.Fatal("walls-45 not registered")
	}
	if e.Dim() != 2 {
		t.Fatalf("dim = %d", e.Dim())
	}
}

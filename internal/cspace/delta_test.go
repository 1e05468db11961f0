package cspace

import (
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// TestDeltaCheckerSoundness fuzzes the contract that matters: for any
// configuration/edge free before the mutation, ConfigStillFree and
// EdgeStillFree must agree with a full recheck against the mutated
// world. (The converse — flagging something still free as affected —
// only costs time and is exercised by the culling tests.)
func TestDeltaCheckerSoundness(t *testing.T) {
	base := env.Mixed30()
	s := NewPointSpace(base)
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.3, 0.3, 0.3, 0.55, 0.55, 0.55)})
	if err != nil {
		t.Fatal(err)
	}
	after := s.WithEnv(mutated)
	dc := NewDeltaChecker(s, d)

	r := rng.New(42)
	var cfgs []Config
	for len(cfgs) < 200 {
		q, ok := s.SampleFreeIn(s.Bounds, r, 50, nil)
		if !ok {
			continue
		}
		cfgs = append(cfgs, q)
	}
	for _, q := range cfgs {
		got := dc.ConfigStillFree(q, nil)
		want := after.Valid(q, nil)
		if got != want {
			t.Fatalf("ConfigStillFree(%v) = %v, full recheck = %v", q, got, want)
		}
	}
	edges := 0
	for i := 0; i+1 < len(cfgs) && edges < 100; i += 2 {
		a, b := cfgs[i], cfgs[i+1]
		if !s.LocalPlan(a, b, nil) {
			continue // only pre-mutation-valid edges are in scope
		}
		edges++
		got := dc.EdgeStillFree(a, b, nil)
		want := after.LocalPlan(a, b, nil)
		if got != want {
			t.Fatalf("EdgeStillFree = %v, full recheck = %v", got, want)
		}
	}
	if edges == 0 {
		t.Fatal("no valid edges sampled")
	}
}

func TestDeltaCheckerRemovalOnly(t *testing.T) {
	base := env.MedCube()
	s := NewPointSpace(base)
	mutated := base.Clone()
	d, err := mutated.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDeltaChecker(s, d)
	if dc.Invalidating() {
		t.Fatal("removal-only delta reported invalidating")
	}
	// Everything stays free without a single collision test.
	var c Counters
	if !dc.ConfigStillFree(geom.V(0.1, 0.1, 0.1), &c) {
		t.Fatal("removal invalidated a config")
	}
	if !dc.EdgeStillFree(geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), &c) {
		t.Fatal("removal invalidated an edge")
	}
	if c.CDCalls != 0 || c.LPCalls != 0 {
		t.Fatalf("removal-only recheck did work: %v", c)
	}
}

func TestDeltaCheckerCulling(t *testing.T) {
	base := env.Free()
	s := NewPointSpace(base)
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.45, 0.45, 0.45, 0.55, 0.55, 0.55)})
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDeltaChecker(s, d)
	// A config far from the delta is culled without collision work.
	var c Counters
	if !dc.ConfigStillFree(geom.V(0.05, 0.05, 0.05), &c) || c.CDCalls != 0 {
		t.Fatalf("far config not culled (counters %v)", c)
	}
	if dc.ConfigAffected(geom.V(0.05, 0.05, 0.05)) {
		t.Fatal("far config reported affected")
	}
	if !dc.ConfigAffected(geom.V(0.5, 0.5, 0.5)) {
		t.Fatal("config inside the delta reported unaffected")
	}
	// An edge whose endpoint AABB misses the delta is culled; one that
	// crosses it is not (even with both endpoints outside).
	if dc.EdgeAffected(geom.V(0.1, 0.1, 0.1), geom.V(0.2, 0.1, 0.1)) {
		t.Fatal("distant edge reported affected")
	}
	if !dc.EdgeAffected(geom.V(0.5, 0.5, 0.1), geom.V(0.5, 0.5, 0.9)) {
		t.Fatal("crossing edge reported unaffected")
	}
	if dc.EdgeStillFree(geom.V(0.5, 0.5, 0.1), geom.V(0.5, 0.5, 0.9), nil) {
		t.Fatal("edge through the new obstacle survived")
	}
	// The cull ball is available for point spaces and contains the
	// obstacle.
	center, radius, ok := dc.CullBall()
	if !ok {
		t.Fatal("cull ball unavailable for a point space")
	}
	if center.Dist(geom.V(0.5, 0.5, 0.5)) > 1e-12 {
		t.Fatalf("cull ball center %v", center)
	}
	if radius <= 0 {
		t.Fatalf("cull ball radius %g", radius)
	}
}

func TestDeltaCheckerRigidBodyReach(t *testing.T) {
	base := env.Free()
	body := NewRigidBox(0.08, 0.08, 0.08)
	s := NewRigidBodySpace(base, body)
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.45, 0.45, 0.45, 0.55, 0.55, 0.55)})
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDeltaChecker(s, d)
	// A pose whose body can graze the new obstacle must not be culled:
	// center at distance < body half-diagonal from the box face.
	q := geom.V(0.58, 0.5, 0.5, 0.7, 0, 0) // rotated so corners stick out
	if !dc.ConfigAffected(q) {
		t.Fatal("pose within body reach of the delta was culled")
	}
	after := s.WithEnv(mutated)
	if dc.ConfigStillFree(q, nil) != after.Valid(q, nil) {
		t.Fatal("rigid-body recheck disagrees with full recheck")
	}
	// No cull ball: the C-space is weighted and 6-dimensional.
	if _, _, ok := dc.CullBall(); ok {
		t.Fatal("cull ball offered for a weighted 6-DOF space")
	}
}

func TestDeltaCheckerLinkageDisk(t *testing.T) {
	base := &env.Environment{Name: "plane", Bounds: geom.NewAABB(geom.V(0, 0), geom.V(1, 1))}
	l := Linkage{Base: geom.V(0.2, 0.2), LinkLen: []float64{0.1, 0.1}}
	s := NewLinkageSpace(base, l)

	// Delta outside the reachability disk: never affected.
	far := base.Clone()
	dFar, err := far.AddObstacle(env.BoxObstacle{Box: geom.Box2(0.8, 0.8, 0.9, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDeltaChecker(s, dFar)
	if dc.Invalidating() {
		t.Fatal("unreachable delta reported invalidating for linkage")
	}

	// Delta inside the disk: all-or-nothing, every config re-checked.
	near := base.Clone()
	dNear, err := near.AddObstacle(env.BoxObstacle{Box: geom.Box2(0.3, 0.18, 0.4, 0.24)})
	if err != nil {
		t.Fatal(err)
	}
	dc = NewDeltaChecker(s, dNear)
	if !dc.Invalidating() {
		t.Fatal("reachable delta not invalidating")
	}
	qStraight := geom.V(0.0, 0.0) // arm pointing +x: collides with the bar
	qUp := geom.V(1.57, 1.57)     // arm pointing +y: clear
	if !dc.ConfigAffected(qStraight) || !dc.ConfigAffected(qUp) {
		t.Fatal("linkage culling must be all-or-nothing")
	}
	afterNear := s.WithEnv(near)
	for _, q := range []Config{qStraight, qUp} {
		if dc.ConfigStillFree(q, nil) != afterNear.Valid(q, nil) {
			t.Fatalf("linkage recheck disagrees with full recheck at %v", q)
		}
	}
}

// TestDeltaCheckerScratchMatchesAdapter: EdgeStillFreeS, the form a
// repair task uses, gives through one dirty scratch shared by every robot
// the verdict and Counters EdgeStillFree gives through a fresh one.
func TestDeltaCheckerScratchMatchesAdapter(t *testing.T) {
	spaces := scratchSpaces()
	spaces["point"] = NewPointSpace(env.Mixed30())
	var sc Scratch
	for name, s := range spaces {
		mutated := s.Env.Clone()
		mid := s.Env.Bounds.Center()
		lo, hi := mid.Clone(), mid.Clone()
		for i := range lo {
			lo[i], hi[i] = mid[i]-0.2, mid[i]+0.2
		}
		d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.NewAABB(lo, hi)})
		if err != nil {
			t.Fatal(err)
		}
		dc := NewDeltaChecker(s, d)
		r := rng.New(9)
		checked := 0
		for trial := 0; trial < 300; trial++ {
			a, okA := s.SampleFreeIn(s.Bounds, r, 50, nil)
			b, okB := s.SampleFreeIn(s.Bounds, r, 50, nil)
			if !okA || !okB {
				continue
			}
			b = a.Lerp(b, 0.3)
			var want, got Counters
			if dc.EdgeStillFree(a, b, &want) != dc.EdgeStillFreeS(a, b, &sc, &got) || got != want {
				t.Fatalf("%s: EdgeStillFreeS differs from EdgeStillFree (counters %+v, want %+v)", name, got, want)
			}
			if dc.EdgeAffected(a, b) {
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: the delta reached no edge", name)
		}
	}
}

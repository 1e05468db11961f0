package env

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"parmp/internal/geom"
)

func TestAddObstacleDelta(t *testing.T) {
	e := Free()
	if e.Epoch != 0 {
		t.Fatalf("fresh env epoch = %d, want 0", e.Epoch)
	}
	o := BoxObstacle{Box: geom.Box3(0.4, 0.4, 0.4, 0.6, 0.6, 0.6)}
	d, err := e.AddObstacle(o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 || e.Epoch != 1 {
		t.Fatalf("epoch after add: delta=%d env=%d, want 1", d.Epoch, e.Epoch)
	}
	if len(d.Added) != 1 || len(d.Removed) != 0 {
		t.Fatalf("delta = %+v, want one added obstacle", d)
	}
	if !d.Invalidating() {
		t.Fatal("add delta must be invalidating")
	}
	if free, _ := e.CheckPoint(geom.V(0.5, 0.5, 0.5)); free {
		t.Fatal("center should now collide")
	}
}

func TestRemoveObstacleDelta(t *testing.T) {
	e := MedCube()
	d, err := e.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 || len(d.Removed) != 1 || len(d.Added) != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Invalidating() {
		t.Fatal("removal-only delta must not be invalidating")
	}
	if len(e.Obstacles) != 0 {
		t.Fatalf("obstacles left: %d", len(e.Obstacles))
	}
	if free, _ := e.CheckPoint(geom.V(0.5, 0.5, 0.5)); !free {
		t.Fatal("center should be free after removal")
	}
	if _, err := e.RemoveObstacle(0); !errors.Is(err, ErrNoSuchObstacle) {
		t.Fatalf("remove from empty: err = %v, want ErrNoSuchObstacle", err)
	}
}

func TestMoveObstacleDelta(t *testing.T) {
	e := MedCube()
	before := e.Obstacles[0].Bounds()
	d, err := e.MoveObstacle(0, geom.V(0.1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("move delta = %+v, want one added + one removed", d)
	}
	after := e.Obstacles[0].Bounds()
	if after.Lo[0] != before.Lo[0]+0.1 {
		t.Fatalf("obstacle did not move: %v -> %v", before, after)
	}
	// A removed pose and an added pose: still invalidating.
	if !d.Invalidating() {
		t.Fatal("move delta must be invalidating")
	}
}

func TestMutationValidation(t *testing.T) {
	e := Free()
	if _, err := e.AddObstacle(nil); !errors.Is(err, ErrDegenerateObstacle) {
		t.Errorf("nil obstacle: err = %v", err)
	}
	if _, err := e.AddObstacle(SphereObstacle{Center: geom.V(0.5, 0.5, 0.5), Radius: 0}); !errors.Is(err, ErrDegenerateObstacle) {
		t.Errorf("zero-radius sphere: err = %v", err)
	}
	if _, err := e.AddObstacle(BoxObstacle{Box: geom.Box2(0, 0, 1, 1)}); !errors.Is(err, ErrDegenerateObstacle) {
		t.Errorf("2D obstacle in 3D env: err = %v", err)
	}
	if _, err := e.AddObstacle(BoxObstacle{Box: geom.Box3(2, 2, 2, 3, 3, 3)}); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("fully outside obstacle: err = %v", err)
	}
	if e.Epoch != 0 {
		t.Fatalf("failed mutations bumped the epoch to %d", e.Epoch)
	}

	// Out-of-bounds move: driving the cube entirely out of the
	// workspace is rejected and leaves the world untouched.
	m := MedCube()
	if _, err := m.MoveObstacle(0, geom.V(5, 0, 0)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out-of-bounds move: err = %v", err)
	}
	if m.Epoch != 0 || len(m.Obstacles) != 1 {
		t.Fatal("failed move mutated the environment")
	}
	if _, err := m.MoveObstacle(3, geom.V(0, 0, 0.1)); !errors.Is(err, ErrNoSuchObstacle) {
		t.Errorf("bad index move: err = %v", err)
	}
	if _, err := m.MoveObstacle(0, geom.V(0.1, 0.1)); !errors.Is(err, ErrDegenerateObstacle) {
		t.Errorf("bad translation dim: err = %v", err)
	}
}

func TestEpochMonotonicity(t *testing.T) {
	e := Free()
	var last uint64
	for i := 0; i < 10; i++ {
		d, err := e.AddObstacle(SphereObstacle{Center: geom.V(0.1, 0.1, 0.1), Radius: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if d.Epoch <= last {
			t.Fatalf("epoch not strictly increasing: %d after %d", d.Epoch, last)
		}
		last = d.Epoch
		d, err = e.RemoveObstacle(0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Epoch <= last {
			t.Fatalf("epoch not strictly increasing: %d after %d", d.Epoch, last)
		}
		last = d.Epoch
	}
}

func TestCloneIsolation(t *testing.T) {
	e := MedCube()
	c := e.Clone()
	if _, err := c.AddObstacle(SphereObstacle{Center: geom.V(0.1, 0.1, 0.1), Radius: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveObstacle(0); err != nil {
		t.Fatal(err)
	}
	if len(e.Obstacles) != 1 || e.Epoch != 0 {
		t.Fatalf("mutating the clone changed the original: %d obstacles epoch %d",
			len(e.Obstacles), e.Epoch)
	}
	if c.Epoch != 2 {
		t.Fatalf("clone epoch = %d, want 2", c.Epoch)
	}
}

func TestDeltaAddedBounds(t *testing.T) {
	var d Delta
	if _, ok := d.AddedBounds(0.1); ok {
		t.Fatal("empty delta must have no added bounds")
	}
	d.Added = []Obstacle{
		BoxObstacle{Box: geom.Box2(0.1, 0.1, 0.2, 0.2)},
		BoxObstacle{Box: geom.Box2(0.5, 0.6, 0.7, 0.8)},
	}
	b, ok := d.AddedBounds(0.05)
	if !ok {
		t.Fatal("added bounds missing")
	}
	want := geom.Box2(0.05, 0.05, 0.75, 0.85)
	for i := range want.Lo {
		if diff := b.Lo[i] - want.Lo[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("added bounds = %v, want %v", b, want)
		}
		if diff := b.Hi[i] - want.Hi[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("added bounds = %v, want %v", b, want)
		}
	}
}

func TestZeroAreaDelta(t *testing.T) {
	// A move by zero distance is a legal mutation: the epoch bumps (so
	// caches roll over) but the added/removed poses coincide, and repair
	// finds nothing newly blocked.
	e := MedCube()
	d, err := e.MoveObstacle(0, geom.V(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 {
		t.Fatalf("epoch = %d", d.Epoch)
	}
	ab := d.Added[0].Bounds()
	rb := d.Removed[0].Bounds()
	for i := range ab.Lo {
		if ab.Lo[i] != rb.Lo[i] || ab.Hi[i] != rb.Hi[i] {
			t.Fatal("zero move changed the obstacle bounds")
		}
	}
}

func TestParsedEnvironmentMutates(t *testing.T) {
	// Environments from the text format participate in versioning like
	// procedural ones, including thin (zero-volume) boxes, which are
	// legal walls.
	src := `name parsed
bounds 0 0 1 1
box 0.4 0 0.4 0.6
`
	e, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch != 0 {
		t.Fatalf("parsed epoch = %d", e.Epoch)
	}
	d, err := e.MoveObstacle(0, geom.V(0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 || len(e.Obstacles) != 1 {
		t.Fatalf("delta %+v, obstacles %d", d, len(e.Obstacles))
	}
	// The thin wall still blocks segments crossing its new position.
	if free, _ := e.SegmentFree(geom.V(0.5, 0.3), geom.V(0.7, 0.3)); free {
		t.Fatal("moved thin wall does not block")
	}
}

func TestPolygonTranslate(t *testing.T) {
	p, ok := NewConvexPolygon([]geom.Vec{geom.V(0.1, 0.1), geom.V(0.3, 0.1), geom.V(0.2, 0.3)})
	if !ok {
		t.Fatal("triangle rejected")
	}
	e := &Environment{Name: "poly", Bounds: unitBox(2), Obstacles: []Obstacle{p}}
	d, err := e.MoveObstacle(0, geom.V(0.4, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Obstacles[0].Contains(geom.V(0.6, 0.55)) {
		t.Fatal("translated polygon lost its interior")
	}
	if d.Removed[0].Contains(geom.V(0.6, 0.55)) {
		t.Fatal("old pose contains the translated interior point")
	}
}

func TestScenariosRunInBounds(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			e, script := sc.BuildMoves()
			if e.Epoch != 0 {
				t.Fatalf("base epoch = %d", e.Epoch)
			}
			var last uint64
			for k := 0; k < 32; k++ {
				d, err := e.ApplyMoves(script(k))
				if err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				if d.Epoch <= last {
					t.Fatalf("step %d: epoch %d after %d", k, d.Epoch, last)
				}
				last = d.Epoch
				for i, o := range e.Obstacles {
					if !e.Bounds.Intersects(o.Bounds()) {
						t.Fatalf("step %d: obstacle %d left the workspace", k, i)
					}
				}
			}
		})
	}
}

func TestScenarioDoorTogglesPassage(t *testing.T) {
	e, script := DoorMoves()
	mid := geom.V(0.5, 0.2, 0.5) // center of the doorway
	if free, _ := e.CheckPoint(mid); !free {
		t.Fatal("doorway must start open")
	}
	if _, err := e.ApplyMoves(script(0)); err != nil {
		t.Fatal(err)
	}
	if free, _ := e.CheckPoint(mid); free {
		t.Fatal("doorway must be blocked after closing")
	}
	if _, err := e.ApplyMoves(script(1)); err != nil {
		t.Fatal(err)
	}
	if free, _ := e.CheckPoint(mid); !free {
		t.Fatal("doorway must reopen")
	}
}

// A rejected move leaves the world and the epoch untouched, even when
// earlier moves of the same call were legal.
func TestApplyMovesAllOrNothing(t *testing.T) {
	e, script := WarehouseForkliftMoves()
	if _, err := e.ApplyMoves(script(0)); err != nil {
		t.Fatal(err)
	}
	before, epoch := append([]Obstacle(nil), e.Obstacles...), e.Epoch
	moves := append(script(1), Move{Index: len(e.Obstacles), By: geom.V(0, 0.1)})
	if _, err := e.ApplyMoves(moves); !errors.Is(err, ErrNoSuchObstacle) {
		t.Fatalf("err = %v, want ErrNoSuchObstacle", err)
	}
	// A forklift cannot be driven out of the workspace either.
	if _, err := e.ApplyMoves([]Move{script(1)[0], {Index: script(1)[1].Index, By: geom.V(5, 0)}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
	if e.Epoch != epoch || !reflect.DeepEqual(e.Obstacles, before) {
		t.Fatalf("rejected moves changed the world: epoch %d -> %d", epoch, e.Epoch)
	}
	// The script carries on from where the rejected calls left it.
	d, err := e.ApplyMoves(script(1))
	if err != nil || d.Epoch != epoch+3 || len(d.Added) != 3 || len(d.Removed) != 3 {
		t.Fatalf("step 1 after the rejections: delta %+v, err %v", d, err)
	}
}

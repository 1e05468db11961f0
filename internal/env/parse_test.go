package env

import (
	"math"
	"strings"
	"testing"

	"parmp/internal/geom"
)

const sample3D = `
# a test scene
name test-scene
bounds 0 0 0 1 1 1
box 0.2 0.2 0.2 0.4 0.4 0.4
sphere 0.7 0.7 0.7 0.1
`

func TestParse3D(t *testing.T) {
	e, err := Parse(strings.NewReader(sample3D))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "test-scene" || e.Dim() != 3 || len(e.Obstacles) != 2 {
		t.Fatalf("parsed: %s dim=%d obstacles=%d", e.Name, e.Dim(), len(e.Obstacles))
	}
	if e.PointFree(geom.V(0.3, 0.3, 0.3)) {
		t.Fatal("box interior should be blocked")
	}
	if e.PointFree(geom.V(0.7, 0.7, 0.75)) {
		t.Fatal("sphere interior should be blocked")
	}
	if !e.PointFree(geom.V(0.05, 0.05, 0.05)) {
		t.Fatal("corner should be free")
	}
}

func TestParse2DAndSwappedBoxCorners(t *testing.T) {
	src := "bounds 0 0 2 2\nbox 1.5 1.5 0.5 0.5\n"
	e, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 2 {
		t.Fatalf("dim = %d", e.Dim())
	}
	if e.PointFree(geom.V(1, 1)) {
		t.Fatal("box (with swapped corners) should block its interior")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"box 0 0 1 1\n", "line 1: box before bounds"},
		{"bounds 0 0 1\n", "line 1: bounds wants"},
		{"bounds 1 1 0 0\n", "line 1: degenerate bounds"},
		{"bounds 0 0 1 1\nsphere 0.5 0.5 0\n", "line 2: sphere radius"},
		{"bounds 0 0 1 1\nwarp 1 2\n", "line 2: unknown directive"},
		{"bounds 0 0 1 1\nbox a b c d\n", "line 2: box wants 4 numbers"},
		{"", "missing bounds"},
		{"name\n", "line 1: name wants"},
		// NaN passes every ordered comparison: these three parsed, and an
		// engine grew a roadmap inside the first.
		{"bounds nan nan 1 1\n", `line 1: non-finite number "nan"`},
		{"bounds 0 0 1 1\nsphere .5 .5 nan\n", `line 2: non-finite number "nan"`},
		{"bounds 0 0 1 1\nbox .1 .1 +Inf .2\n", `line 2: non-finite number "+Inf"`},
		{"bounds 0 0 -inf 1 1 1\n", `line 1: non-finite number "-inf"`},
		// A second bounds line turned a 2D world holding a 2D box into a
		// 3D world holding that 2D box.
		{"bounds 0 0 1 1\nbox .2 .2 .4 .4\n\nbounds 0 0 0 1 1 1\n", "line 4: bounds given twice"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): err = %v, want one containing %q", c.src, err, c.want)
		}
	}
	// A name is a token, not a number.
	if e, err := Parse(strings.NewReader("name nan\nbounds 0 0 1 1\n")); err != nil || e.Name != "nan" {
		t.Errorf("name nan: %v, %v", e, err)
	}
}

// FuzzParse: the parser is reachable from POST /v1/query (env_text) and
// mpsolve -envfile. It never panics; whatever it accepts is a world an
// engine can subdivide (finite lo < hi bounds, every obstacle of the
// world's dimension); and Write then Parse reproduces it exactly.
func FuzzParse(f *testing.F) {
	f.Add(sample3D)
	f.Add("bounds 0 0 2 2\nbox 1.5 1.5 0.5 0.5\n")
	f.Add("bounds nan nan 1 1\n")
	f.Add("bounds 0 0 1 1\nsphere .5 .5 nan\n")
	f.Add("bounds 0 0 1 1\nbox .2 .2 .4 .4\nbounds 0 0 0 1 1 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		dim := e.Dim()
		if (dim != 2 && dim != 3) || len(e.Bounds.Hi) != dim {
			t.Fatalf("accepted a %d/%d-dimensional world", dim, len(e.Bounds.Hi))
		}
		finite := func(v geom.Vec) bool {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
			return len(v) == dim
		}
		if !finite(e.Bounds.Lo) || !finite(e.Bounds.Hi) {
			t.Fatalf("accepted bounds %v", e.Bounds)
		}
		for d := 0; d < dim; d++ {
			if !(e.Bounds.Lo[d] < e.Bounds.Hi[d]) {
				t.Fatalf("accepted degenerate bounds %v", e.Bounds)
			}
		}
		for i, o := range e.Obstacles {
			if b := o.Bounds(); !finite(b.Lo) || !finite(b.Hi) {
				t.Fatalf("obstacle %d of a %dD world has bounds %v", i, dim, b)
			}
		}
		var first, second strings.Builder
		if err := Write(&first, e); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("Parse rejects what Write wrote: %v\n%s", err, first.String())
		}
		if err := Write(&second, back); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("Write -> Parse is not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := MedCube()
	orig.Obstacles = append(orig.Obstacles, SphereObstacle{Center: geom.V(0.1, 0.1, 0.1), Radius: 0.05})
	var sb strings.Builder
	if err := Write(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || len(back.Obstacles) != len(orig.Obstacles) {
		t.Fatalf("round trip: %s %d obstacles", back.Name, len(back.Obstacles))
	}
	// Same blocked fraction (MC with same seed).
	a := orig.BlockedFraction(50000, 3)
	b := back.BlockedFraction(50000, 3)
	if a != b {
		t.Fatalf("blocked fractions differ: %v vs %v", a, b)
	}
}

func TestWriteRejectsUnknownObstacle(t *testing.T) {
	e := &Environment{Bounds: unitBox(2), Obstacles: []Obstacle{fakeObstacle{}}}
	var sb strings.Builder
	if err := Write(&sb, e); err == nil {
		t.Fatal("unknown obstacle type should fail")
	}
}

type fakeObstacle struct{}

func (fakeObstacle) Contains(geom.Vec) bool         { return false }
func (fakeObstacle) Bounds() geom.AABB              { return unitBox(2) }
func (fakeObstacle) SegmentHits(a, b geom.Vec) bool { return false }

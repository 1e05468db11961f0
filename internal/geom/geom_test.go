package geom

import (
	"math"
	"testing"
	"testing/quick"

	"parmp/internal/rng"
)

func TestVecArithmetic(t *testing.T) {
	v := V(1, 2, 3)
	w := V(4, 5, 6)
	if got := v.Add(w); !got.Equal(V(5, 7, 9), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(V(3, 3, 3), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(V(2, 4, 6), 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestVecNormDist(t *testing.T) {
	v := V(3, 4)
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v", v.Norm())
	}
	if v.Dist(V(0, 0)) != 5 {
		t.Fatalf("Dist = %v", v.Dist(V(0, 0)))
	}
	if u := v.Unit(); math.Abs(u.Norm()-1) > 1e-12 {
		t.Fatalf("Unit norm = %v", u.Norm())
	}
	z := V(0, 0)
	if !z.Unit().Equal(z, 0) {
		t.Fatal("Unit of zero vector should be zero")
	}
}

func TestVecLerpEndpoints(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		if math.IsNaN(a) || math.IsNaN(b) {
			a, b = 0, 0
		}
		v, w := V(a, b), V(b, a)
		return v.Lerp(w, 0).Equal(v, 1e-6) && v.Lerp(w, 1).Equal(w, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAABBContains(t *testing.T) {
	b := Box2(0, 0, 1, 1)
	if !b.Contains(V(0.5, 0.5)) || !b.Contains(V(0, 0)) || !b.Contains(V(1, 1)) {
		t.Fatal("boundary/interior points should be contained")
	}
	if b.Contains(V(1.01, 0.5)) || b.Contains(V(-0.01, 0.5)) {
		t.Fatal("outside points should not be contained")
	}
}

func TestAABBVolumeCenter(t *testing.T) {
	b := Box3(0, 0, 0, 2, 3, 4)
	if b.Volume() != 24 {
		t.Fatalf("Volume = %v", b.Volume())
	}
	if !b.Center().Equal(V(1, 1.5, 2), 1e-12) {
		t.Fatalf("Center = %v", b.Center())
	}
	if !b.Extent().Equal(V(2, 3, 4), 1e-12) {
		t.Fatalf("Extent = %v", b.Extent())
	}
}

func TestAABBIntersection(t *testing.T) {
	a := Box2(0, 0, 2, 2)
	b := Box2(1, 1, 3, 3)
	if !a.Intersects(b) {
		t.Fatal("overlapping boxes should intersect")
	}
	if got := a.IntersectionVolume(b); got != 1 {
		t.Fatalf("IntersectionVolume = %v", got)
	}
	c := Box2(5, 5, 6, 6)
	if a.Intersects(c) {
		t.Fatal("disjoint boxes should not intersect")
	}
	if a.IntersectionVolume(c) != 0 {
		t.Fatal("disjoint intersection volume should be 0")
	}
}

func TestAABBIntersectionVolumeSymmetric(t *testing.T) {
	f := func(x0, y0, x1, y1 float64) bool {
		lo := V(math.Min(x0, x1), math.Min(y0, y1))
		hi := V(math.Max(x0, x1), math.Max(y0, y1))
		a := NewAABB(lo, hi)
		b := Box2(-1, -1, 1, 1)
		return math.Abs(a.IntersectionVolume(b)-b.IntersectionVolume(a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAABBExpandClamp(t *testing.T) {
	b := Box2(0, 0, 1, 1)
	if got := b.Clamp(V(5, -5)); !got.Equal(V(1, 0), 1e-12) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestAABBDistanceTo(t *testing.T) {
	b := Box2(0, 0, 1, 1)
	if b.DistanceTo(V(0.5, 0.5)) != 0 {
		t.Fatal("inside distance should be 0")
	}
	if d := b.DistanceTo(V(2, 1)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("edge distance = %v", d)
	}
	if d := b.DistanceTo(V(2, 2)); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("corner distance = %v", d)
	}
}

func TestSegmentIntersects(t *testing.T) {
	b := Box2(1, 1, 2, 2)
	cases := []struct {
		a, c Vec
		want bool
	}{
		{V(0, 0), V(3, 3), true},         // diagonal through
		{V(0, 0), V(0.5, 0.5), false},    // stops short
		{V(1.5, 0), V(1.5, 3), true},     // vertical through
		{V(0, 0), V(3, 0), false},        // passes below
		{V(1.5, 1.5), V(1.6, 1.6), true}, // fully inside
		{V(0, 1), V(1, 1), true},         // touches corner edge
	}
	for i, c := range cases {
		if got := b.SegmentIntersects(c.a, c.c); got != c.want {
			t.Fatalf("case %d: SegmentIntersects(%v,%v) = %v, want %v", i, c.a, c.c, got, c.want)
		}
	}
}

func TestRayEnter(t *testing.T) {
	b := Box2(1, -1, 2, 1)
	tEnter, ok := b.RayEnter(V(0, 0), V(1, 0))
	if !ok || math.Abs(tEnter-1) > 1e-12 {
		t.Fatalf("RayEnter = %v ok=%v", tEnter, ok)
	}
	if _, ok := b.RayEnter(V(0, 0), V(-1, 0)); ok {
		t.Fatal("ray pointing away should miss")
	}
	tEnter, ok = b.RayEnter(V(1.5, 0), V(1, 0))
	if !ok || tEnter != 0 {
		t.Fatalf("ray starting inside: t=%v ok=%v", tEnter, ok)
	}
}

// specialFloats are the inputs where math's functions take their own
// branches: signed zeros, quarter turns, infinities and NaN.
var specialFloats = []float64{0, math.Copysign(0, -1), math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e-300, 1e300, math.MaxFloat64}

// TestSlabMatchesMathMinMax holds Slab to the slab step it replaced,
// written with math.Max and math.Min, on random and special inputs: bit
// for bit (signed zeros included; a NaN may carry another payload),
// except where math's versions met a NaN paired with an infinity.
func TestSlabMatchesMathMinMax(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	nanVsInf := func(x, y float64) bool {
		return math.IsNaN(x) && math.IsInf(y, 0) || math.IsInf(x, 0) && math.IsNaN(y)
	}
	// old reports, besides its result, whether its Max or Min met the
	// one pair the builtins answer differently.
	old := func(lo, hi, a, d, tMin, tMax float64) (float64, float64, bool, bool) {
		if math.Abs(d) < 1e-15 {
			return tMin, tMax, !(a < lo || a > hi), false
		}
		t1, t2 := (lo-a)/d, (hi-a)/d
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		differs := nanVsInf(tMin, t1) || nanVsInf(tMax, t2)
		tMin, tMax = math.Max(tMin, t1), math.Min(tMax, t2)
		return tMin, tMax, !(tMin > tMax), differs
	}
	r := rng.New(3)
	draw := func() float64 {
		if r.Intn(4) == 0 {
			return specialFloats[r.Intn(len(specialFloats))]
		}
		return r.Range(-2, 2)
	}
	for i := 0; i < 200000; i++ {
		in := [6]float64{draw(), draw(), draw(), draw(), draw(), draw()}
		g0, g1, gok := Slab(in[0], in[1], in[2], in[3], in[4], in[5])
		w0, w1, wok, differs := old(in[0], in[1], in[2], in[3], in[4], in[5])
		if !differs && (!same(g0, w0) || !same(g1, w1) || gok != wok) {
			t.Fatalf("Slab%v = (%v, %v, %v), math.Max/Min step (%v, %v, %v)", in, g0, g1, gok, w0, w1, wok)
		}
	}
}

// TestSegmentCullMatchesSlab holds SegmentIntersects, cull and all, to
// the bare slab loop it had before SlabCull, bit for bit, and holds
// SlabCull's own claim: a miss on faces CullFaces admits is a Slab
// rejection from every interval within [0, 1]. Faces and ends are drawn
// on a face, a few ulps or the cull's gap either side of one, at and
// across ±2^20, non-finite, or anywhere, at scales 1e-6 to 1e9, in one
// to four dimensions, with zero-length and nearly parallel axes.
func TestSegmentCullMatchesSlab(t *testing.T) {
	slab := func(b AABB, a, c Vec) bool {
		tMin, tMax, ok := 0.0, 1.0, true
		for i := 0; i < len(b.Lo) && ok; i++ {
			tMin, tMax, ok = Slab(b.Lo[i], b.Hi[i], a[i], c[i]-a[i], tMin, tMax)
		}
		return ok
	}
	r := rng.New(29)
	scales := []float64{1e-6, 1e-3, 1, 1e3, 1e6, 1e9}
	near := func(lo, hi, s float64) float64 {
		face := []float64{lo, hi, lo - cullGap, hi + cullGap, cullRange, -cullRange}[r.Intn(6)]
		switch r.Intn(6) {
		case 0, 1:
			return face
		case 2:
			for n := 1 + r.Intn(4); n > 0; n-- {
				face = math.Nextafter(face, math.Inf(1-2*r.Intn(2)))
			}
			return face
		case 3:
			return specialFloats[r.Intn(len(specialFloats))]
		default:
			return r.Range(-2*s, 2*s)
		}
	}
	for trial := 0; trial < 400000; trial++ {
		s := scales[r.Intn(len(scales))]
		d := 1 + r.Intn(4)
		b := AABB{Lo: make(Vec, d), Hi: make(Vec, d)}
		a, c := make(Vec, d), make(Vec, d)
		for i := 0; i < d; i++ {
			b.Lo[i], b.Hi[i] = r.Range(-s, s), r.Range(-s, s)
			if b.Lo[i] > b.Hi[i] && r.Intn(8) != 0 {
				b.Lo[i], b.Hi[i] = b.Hi[i], b.Lo[i]
			}
			a[i] = near(b.Lo[i], b.Hi[i], s)
			switch r.Intn(4) {
			case 0:
				c[i] = a[i]
			case 1:
				c[i] = a[i] + r.Range(-1e-15, 1e-15)
			default:
				c[i] = near(b.Lo[i], b.Hi[i], s)
			}
		}
		if got, want := b.SegmentIntersects(a, c), slab(b, a, c); got != want {
			t.Fatalf("box %v segment %v→%v: SegmentIntersects %v, slab %v", b, a, c, got, want)
		}
		loG, hiG, ok := CullFaces(b.Lo[0], b.Hi[0])
		if miss, _ := SlabCull(loG, hiG, a[0], c[0]); ok && miss {
			tMin, tMax := r.Float64(), r.Float64()
			if _, _, hit := Slab(b.Lo[0], b.Hi[0], a[0], c[0]-a[0], tMin, tMax); hit {
				t.Fatalf("faces [%v, %v] ends %v, %v: SlabCull misses, Slab on [%v, %v] hits", b.Lo[0], b.Hi[0], a[0], c[0], tMin, tMax)
			}
		}
	}
}

// TestQuatFromEulerMatchesSinCos holds QuatFromEuler's Sincos half
// angles to the separate math.Sin / math.Cos calls it replaced, bit for
// bit, on 10⁶ random angle triples plus every special value.
func TestQuatFromEulerMatchesSinCos(t *testing.T) {
	old := func(roll, pitch, yaw float64) Quat {
		cr, sr := math.Cos(roll/2), math.Sin(roll/2)
		cp, sp := math.Cos(pitch/2), math.Sin(pitch/2)
		cy, sy := math.Cos(yaw/2), math.Sin(yaw/2)
		return Quat{
			W: cr*cp*cy + sr*sp*sy,
			X: sr*cp*cy - cr*sp*sy,
			Y: cr*sp*cy + sr*cp*sy,
			Z: cr*cp*sy - sr*sp*cy,
		}
	}
	same := func(a, b Quat) bool {
		return math.Float64bits(a.W) == math.Float64bits(b.W) && math.Float64bits(a.X) == math.Float64bits(b.X) &&
			math.Float64bits(a.Y) == math.Float64bits(b.Y) && math.Float64bits(a.Z) == math.Float64bits(b.Z)
	}
	check := func(roll, pitch, yaw float64) {
		if got, want := QuatFromEuler(roll, pitch, yaw), old(roll, pitch, yaw); !same(got, want) {
			t.Fatalf("QuatFromEuler(%v, %v, %v) = %+v, Sin/Cos gives %+v", roll, pitch, yaw, got, want)
		}
	}
	for _, x := range specialFloats {
		check(x, x, x)
		check(x, 0.3, -1.2)
	}
	r := rng.New(2)
	for i := 0; i < 1000000; i++ {
		// Mostly configuration angles, some far outside [-π, π] where
		// the argument reduction takes its other branches.
		scale := math.Pi
		if i%8 == 0 {
			scale = math.Ldexp(1, r.Intn(64))
		}
		check(r.Range(-scale, scale), r.Range(-scale, scale), r.Range(-scale, scale))
	}
}

func TestQuatRotate(t *testing.T) {
	q := QuatFromEuler(0, 0, math.Pi/2)
	got := q.RotateInto(nil, V(1, 0, 0))
	if !got.Equal(V(0, 1, 0), 1e-12) {
		t.Fatalf("RotateInto = %v", got)
	}
	// dst may alias the argument.
	v := V(1, 0, 0)
	if q.RotateInto(v, v); !v.Equal(V(0, 1, 0), 1e-12) {
		t.Fatalf("aliased RotateInto = %v", v)
	}
}

func TestQuatComposition(t *testing.T) {
	// Z-Y-X Euler order: the quaternion of (roll, yaw) is the roll applied
	// first, then the yaw.
	roll := QuatFromEuler(math.Pi/2, 0, 0)
	yaw := QuatFromEuler(0, 0, math.Pi/2)
	v := V(0, 1, 0)
	seq := yaw.RotateInto(nil, roll.RotateInto(nil, v))
	comp := QuatFromEuler(math.Pi/2, 0, math.Pi/2).RotateInto(nil, v)
	if !seq.Equal(comp, 1e-12) || !comp.Equal(V(0, 0, 1), 1e-12) {
		t.Fatalf("composition mismatch: %v vs %v, want (0,0,1)", seq, comp)
	}
}

func TestQuatRotationPreservesNorm(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 100)
	}
	f := func(roll, pitch, yaw, x, y, z float64) bool {
		q := QuatFromEuler(clamp(roll), clamp(pitch), clamp(yaw))
		v := V(clamp(x), clamp(y), clamp(z))
		return math.Abs(q.RotateInto(nil, v).Norm()-v.Norm()) < 1e-6*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransformApplyCompose(t *testing.T) {
	a := Transform{R: QuatFromEuler(0, 0, math.Pi/2), T: V(1, 0, 0)}
	b := Transform{R: Quat{W: 1}, T: V(0, 1, 0)}
	p := V(1, 0, 0)
	// b translates p to (1,1,0); a turns that a quarter about z to
	// (-1,1,0) and translates it to (0,1,0).
	if seq := a.ApplyInto(nil, b.ApplyInto(nil, p)); !seq.Equal(V(0, 1, 0), 1e-12) {
		t.Fatalf("a after b maps %v to %v, want (0,1,0)", p, seq)
	}
}

func TestSampleOnSphereUnit(t *testing.T) {
	r := rng.New(1)
	for d := 1; d <= 6; d++ {
		for i := 0; i < 200; i++ {
			p := SampleOnSphere(d, r)
			if math.Abs(p.Norm()-1) > 1e-9 {
				t.Fatalf("d=%d sample norm %v != 1", d, p.Norm())
			}
		}
	}
}

func TestSampleOnSphereMeanNearZero(t *testing.T) {
	r := rng.New(3)
	mean := make(Vec, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		mean = mean.Add(SampleOnSphere(3, r))
	}
	mean = mean.Scale(1.0 / n)
	if mean.Norm() > 0.02 {
		t.Fatalf("sphere sample mean %v not near origin", mean)
	}
}

func TestAngleBetween(t *testing.T) {
	if a := AngleBetween(V(1, 0), V(0, 1)); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Fatalf("angle = %v", a)
	}
	if a := AngleBetween(V(1, 0), V(1, 0)); a != 0 {
		t.Fatalf("self angle = %v", a)
	}
	if a := AngleBetween(V(1, 0), V(-2, 0)); math.Abs(a-math.Pi) > 1e-12 {
		t.Fatalf("opposite angle = %v", a)
	}
	if a := AngleBetween(V(0, 0), V(1, 0)); a != 0 {
		t.Fatalf("zero-vector angle = %v", a)
	}
}

func TestNewAABBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted AABB should panic")
		}
	}()
	NewAABB(V(1, 0), V(0, 1))
}

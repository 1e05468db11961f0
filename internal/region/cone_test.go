package region

import (
	"math"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// TestConePredicateIsAngleTest: the cosine-domain cone test returns
// exactly what geom.AngleBetween(u, v) <= h returns — on random vectors,
// on vectors built at angle h from the axis and moved 1..4 ulp of the
// cosine either way, at h one ulp either side of and 1e-9 beyond a
// vector's own angle (the widened goal cone), for h outside [0, π), and
// for a zero vector and a NaN coordinate. InCone, which goes through it,
// must agree with the materialised-vector test it replaced.
func TestConePredicateIsAngleTest(t *testing.T) {
	r := rng.New(17)
	randVec := func(d int) geom.Vec {
		v := make(geom.Vec, d)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}
	checked, band := 0, 0
	check := func(u, v geom.Vec, h float64) {
		t.Helper()
		want := geom.AngleBetween(u, v) <= h
		if got := withinAngle(u.Dot(v), u.Norm2(), v.Norm2(), h, math.Cos(h)); got != want {
			t.Fatalf("u %v, v %v, h %v: cone test %v, AngleBetween %v", u, v, h, got, want)
		}
		checked++
		if nu, nv := u.Norm(), v.Norm(); nu != 0 && nv != 0 && math.Abs(u.Dot(v)/(nu*nv)-math.Cos(h)) < 1e-9 {
			band++
		}
		reg := &Region{Kind: KindCone, Ray: v, Apex: randVec(len(v)), Radius: 4, HalfAngle: h}
		p := reg.Apex.Add(u)
		old := p.Sub(reg.Apex)
		wantIn := old.Norm() <= reg.Radius && (old.Norm() == 0 || geom.AngleBetween(old, reg.Ray) <= h)
		if got := InCone(reg, p); got != wantIn {
			t.Fatalf("p %v in %v: InCone %v, want %v", p, reg, got, wantIn)
		}
	}
	hs := []float64{0, 1e-7, math.Pi / 2, math.Pi, math.Pi + 0.3, -0.1}
	for _, d := range []int{2, 3, 6} {
		for trial := 0; trial < 200; trial++ {
			u, v := randVec(d), randVec(d)
			for _, h := range hs {
				check(u, v, h)
			}
			a := geom.AngleBetween(u, v)
			for _, h := range []float64{a, math.Nextafter(a, 0), math.Nextafter(a, 4), a + 1e-9} {
				check(u, v, h)
			}
		}
		// At angle h from the axis: u = c·axis + √(1−c²)·w for a unit w
		// orthogonal to the axis, with c = cos h moved k ulp.
		for trial := 0; trial < 50; trial++ {
			axis := randVec(d).Unit()
			w := randVec(d)
			w = w.Sub(axis.Scale(w.Dot(axis))).Unit()
			for _, h := range append(hs, r.Float64()*math.Pi, 1e-3*r.Float64()) {
				for k := -4; k <= 4; k++ {
					c := math.Cos(h)
					for i := 0; i < k; i++ {
						c = math.Nextafter(c, 2)
					}
					for i := 0; i > k; i-- {
						c = math.Nextafter(c, -2)
					}
					c = max(-1, min(1, c))
					u := axis.Scale(c).Add(w.Scale(math.Sqrt(1 - c*c)))
					check(u, axis, h)
					check(u.Scale(3.5), axis.Scale(0.25), h)
				}
			}
		}
		zero, nan := make(geom.Vec, d), randVec(d)
		nan[d-1] = math.NaN()
		for _, h := range append(hs, math.NaN()) {
			check(zero, randVec(d), h)
			check(randVec(d), zero, h)
			check(nan, randVec(d), h)
			check(randVec(d), nan, h)
		}
	}
	if band < 100 {
		t.Fatalf("only %d of %d cases reached the 1e-9 band", band, checked)
	}
}

// TestInConeAllocatesNothing: InCone accumulates over p − Apex in place
// (it used to allocate the difference vector on every call).
func TestInConeAllocatesNothing(t *testing.T) {
	reg := &Region{Kind: KindCone, Ray: geom.V(0, 0, 1), Apex: geom.V(0.5, 0.5, 0.5), Radius: 0.4, HalfAngle: 0.5}
	p := geom.V(0.55, 0.45, 0.7)
	if allocs := testing.AllocsPerRun(100, func() { InCone(reg, p) }); allocs != 0 {
		t.Fatalf("InCone allocates %v times per call, want 0", allocs)
	}
}

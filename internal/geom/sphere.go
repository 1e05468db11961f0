package geom

import (
	"math"

	"parmp/internal/rng"
)

// SampleOnSphere returns a uniformly distributed point on the surface of
// the unit (d-1)-sphere embedded in d dimensions, using normalized
// Gaussian coordinates. It panics for d < 1.
func SampleOnSphere(d int, r *rng.Stream) Vec {
	return SampleOnSphereInto(nil, d, r)
}

// SampleOnSphereInto is SampleOnSphere writing into dst (growing it as
// needed). The RNG stream consumption is identical to SampleOnSphere.
func SampleOnSphereInto(dst Vec, d int, r *rng.Stream) Vec {
	if d < 1 {
		panic("geom: SampleOnSphere requires d >= 1")
	}
	dst = grow(dst, d)
	if d == 1 {
		if r.Float64() < 0.5 {
			dst[0] = -1
		} else {
			dst[0] = 1
		}
		return dst
	}
	for {
		var n2 float64
		for i := range dst {
			dst[i] = r.NormFloat64()
			n2 += dst[i] * dst[i]
		}
		if n2 > 1e-20 {
			dst.ScaleInPlace(1 / math.Sqrt(n2))
			return dst
		}
	}
}

// AngleBetween returns the angle in radians between unit-or-not vectors
// u and v, clamped for numeric safety.
func AngleBetween(u, v Vec) float64 {
	nu, nv := u.Norm(), v.Norm()
	if nu == 0 || nv == 0 {
		return 0
	}
	c := u.Dot(v) / (nu * nv)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Package geom provides the d-dimensional geometric primitives underlying
// the motion planning stack: vectors, axis-aligned boxes, segments, rays,
// quaternion rotations, and sampling on hyperspheres.
//
// Everything operates on float64 slices so the same code serves 2D and 3D
// workspaces as well as higher-dimensional configuration spaces.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Vec is a point or direction in d-dimensional space.
type Vec []float64

// V constructs a vector from its components.
func V(xs ...float64) Vec { return Vec(xs) }

// Dim returns the dimension of v.
func (v Vec) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	c := make(Vec, len(v))
	for i := range v {
		c[i] = v[i] + w[i]
	}
	return c
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	c := make(Vec, len(v))
	for i := range v {
		c[i] = v[i] - w[i]
	}
	return c
}

// Scale returns s * v.
func (v Vec) Scale(s float64) Vec {
	c := make(Vec, len(v))
	for i := range v {
		c[i] = s * v[i]
	}
	return c
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return math.Sqrt(v.Dist2(w)) }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Unit returns v normalized to unit length. A zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return v.Clone()
	}
	return v.Scale(1 / n)
}

// Lerp returns the linear interpolation (1-t)*v + t*w.
func (v Vec) Lerp(w Vec, t float64) Vec {
	c := make(Vec, len(v))
	for i := range v {
		c[i] = v[i] + t*(w[i]-v[i])
	}
	return c
}

// Equal reports whether v and w are component-wise equal within eps.
func (v Vec) Equal(w Vec, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// String formats v as "(x, y, ...)" with compact precision.
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

package geom

// In-place and destination-passing variants of the Vec operations used on
// the planners' hot paths. They exist so per-worker scratch buffers can
// absorb what would otherwise be one allocation per interpolation step or
// per collision probe.

// grow returns dst resized to d, reallocating only when capacity is
// insufficient.
func grow(dst Vec, d int) Vec {
	if cap(dst) < d {
		return make(Vec, d)
	}
	return dst[:d]
}

// CopyInto writes src into dst (growing it as needed) and returns dst.
func CopyInto(dst, src Vec) Vec {
	dst = grow(dst, len(src))
	copy(dst, src)
	return dst
}

// LerpInto writes (1-t)*a + t*b into dst (growing it as needed) and
// returns dst. dst may alias a or b.
func LerpInto(dst, a, b Vec, t float64) Vec {
	dst = grow(dst, len(a))
	for i := range a {
		dst[i] = a[i] + t*(b[i]-a[i])
	}
	return dst
}

// AddInPlace accumulates w into v component-wise.
func (v Vec) AddInPlace(w Vec) {
	for i := range v {
		v[i] += w[i]
	}
}

// ScaleInPlace multiplies v by s component-wise.
func (v Vec) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// RotateInto writes the rotation of 3D vector v into dst (growing it as
// needed) and returns dst. dst may alias v.
func (q Quat) RotateInto(dst, v Vec) Vec {
	dst = grow(dst, 3)
	// v' = q * (0, v) * q^-1, expanded.
	tx := 2 * (q.Y*v[2] - q.Z*v[1])
	ty := 2 * (q.Z*v[0] - q.X*v[2])
	tz := 2 * (q.X*v[1] - q.Y*v[0])
	x := v[0] + q.W*tx + q.Y*tz - q.Z*ty
	y := v[1] + q.W*ty + q.Z*tx - q.X*tz
	z := v[2] + q.W*tz + q.X*ty - q.Y*tx
	dst[0], dst[1], dst[2] = x, y, z
	return dst
}

// ApplyInto maps p from body frame to world frame — rotate, then
// translate — writing into dst (growing it as needed) and returning it.
// dst may alias p.
func (t Transform) ApplyInto(dst, p Vec) Vec {
	dst = t.R.RotateInto(dst, p)
	dst.AddInPlace(t.T)
	return dst
}

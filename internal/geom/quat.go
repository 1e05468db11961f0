package geom

import "math"

// Quat is a unit quaternion representing a 3D rotation, stored as
// (W, X, Y, Z) with W the scalar part.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity is the identity rotation.
var QuatIdentity = Quat{W: 1}

// QuatFromEuler builds a rotation from Z-Y-X (yaw, pitch, roll) Euler
// angles in radians.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
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

// Mul returns the composition q∘r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit magnitude. The identity is returned
// for a zero quaternion.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation to a 3D vector.
func (q Quat) Rotate(v Vec) Vec {
	// v' = q * (0, v) * q^-1, expanded.
	tx := 2 * (q.Y*v[2] - q.Z*v[1])
	ty := 2 * (q.Z*v[0] - q.X*v[2])
	tz := 2 * (q.X*v[1] - q.Y*v[0])
	return Vec{
		v[0] + q.W*tx + q.Y*tz - q.Z*ty,
		v[1] + q.W*ty + q.Z*tx - q.X*tz,
		v[2] + q.W*tz + q.X*ty - q.Y*tx,
	}
}

// Transform is a rigid-body transform in 3D: rotate then translate.
type Transform struct {
	R Quat
	T Vec
}

// Apply maps a point from body frame to world frame.
func (t Transform) Apply(p Vec) Vec {
	return t.R.Rotate(p).Add(t.T)
}

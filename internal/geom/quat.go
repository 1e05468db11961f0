package geom

import "math"

// Quat is a unit quaternion representing a 3D rotation, stored as
// (W, X, Y, Z) with W the scalar part.
type Quat struct {
	W, X, Y, Z float64
}

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

// Transform is a rigid-body transform in 3D: rotate then translate.
type Transform struct {
	R Quat
	T Vec
}

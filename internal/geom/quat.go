package geom

import "math"

// Quat is a unit quaternion representing a 3D rotation, stored as
// (W, X, Y, Z) with W the scalar part.
type Quat struct {
	W, X, Y, Z float64
}

// QuatFromEuler builds a rotation from Z-Y-X (yaw, pitch, roll) Euler
// angles in radians. Each half angle takes one math.Sincos, which
// returns math.Sin's and math.Cos's results bit for bit.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
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

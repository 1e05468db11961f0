package region

import (
	"math"

	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/rng"
)

// RadialSpec describes a uniform radial subdivision (Algorithm 2 of the
// paper): Nr points sampled on the surface of a sphere about the tree
// root, each defining a conical region; the region graph joins each region
// to its K nearest neighbours on the sphere.
type RadialSpec struct {
	// Regions is Nr, the number of conical regions.
	Regions int
	// K is the number of adjacent regions per region in the region graph.
	K int
	// Radius of the subdivision sphere.
	Radius float64
}

// RadialSubdivision builds the cone regions and their k-NN region graph
// around apex (the tree root configuration's positional part).
func RadialSubdivision(apex geom.Vec, spec RadialSpec, r *rng.Stream) *Graph {
	d := apex.Dim()
	n := spec.Regions
	dirs := make([]geom.Vec, n)
	for i := range dirs {
		dirs[i] = geom.SampleOnSphere(d, r)
	}

	// The natural half-angle for n cones covering the sphere: solid angle
	// per region. For simplicity use the mean angular spacing estimate
	// theta ≈ acos(1 - 2/n) in 3D and pi/n in 2D, generalized via the
	// nearest-direction angle computed below.
	regions := make([]*Region, n)
	for i, dir := range dirs {
		regions[i] = &Region{
			ID:     i,
			Kind:   KindCone,
			Ray:    dir,
			Apex:   apex.Clone(),
			Radius: spec.Radius,
		}
	}

	// k-NN on the sphere: Euclidean distance between unit vectors is
	// monotone in angle, so a kd-tree over the direction points works.
	tree := knn.Build(dirs)
	k := spec.K
	if k >= n {
		k = n - 1
	}
	var sc knn.QueryScratch
	var res []knn.Result
	var ends [][2]int
	for i := range dirs {
		res, _ = tree.NearestInto(&sc, dirs[i], k, i, res[:0])
		nearestAngle := math.Pi
		for _, hit := range res {
			ends = append(ends, [2]int{i, hit.Index})
			a := geom.AngleBetween(dirs[i], dirs[hit.Index])
			if a < nearestAngle {
				nearestAngle = a
			}
		}
		reg := regions[i]
		reg.HalfAngle = nearestAngle
		if reg.HalfAngle <= 0 || n == 1 {
			reg.HalfAngle = math.Pi
		}
	}

	return newGraph(regions, ends)
}

// InCone reports whether point p lies within region r's cone (apex at
// r.Apex, axis r.Ray, half-angle r.HalfAngle) and within its radius.
func InCone(r *Region, p geom.Vec) bool {
	// v·v and v·Ray over v = p − Apex, in Sub's and Dot's order: same bits.
	var vv, vr float64
	for i := range p {
		x := p[i] - r.Apex[i]
		vv += x * x
		vr += x * r.Ray[i]
	}
	d := math.Sqrt(vv)
	if d > r.Radius {
		return false
	}
	if d == 0 {
		return true
	}
	return withinAngle(vr, vv, r.Ray.Norm2(), r.HalfAngle, math.Cos(r.HalfAngle))
}

// withinAngle returns exactly geom.AngleBetween(u, v) <= h for vectors
// with u·v = dot, u·u = uu, v·v = vv, given cosH = math.Cos(h). It
// computes AngleBetween's c (same norms, dot product and clamp) but runs
// its arc cosine only for c within 1e-9 of cos h: acos has slope ≤ −1,
// so c ≥ cos h + 1e-9 puts the angle ≥ 1e-9 below h and c ≤ cos h − 1e-9
// ≥ 1e-9 above it, far beyond math.Cos's and math.Acos's error. The band
// is needed: core.widenGoalCone sets the goal cone's h to the goal's
// angle + 1e-9, which moves the cosine by ≈ sin(h)·1e-9, so the goal's c
// lands in the band and gets AngleBetween's own test. Outside [0, π) the
// cosine says nothing: h ≥ π holds every c but NaN, h < 0 none.
func withinAngle(dot, uu, vv, h, cosH float64) bool {
	nu, nv := math.Sqrt(uu), math.Sqrt(vv)
	if nu == 0 || nv == 0 {
		return 0 <= h
	}
	c := max(-1, min(1, dot/(nu*nv))) // NaN stays NaN
	if h >= math.Pi || h < 0 {
		return h >= 0 && c == c
	}
	if c >= cosH+1e-9 || c <= cosH-1e-9 {
		return c > cosH
	}
	return math.Acos(c) <= h
}

// ConeTarget returns the biasing target for region r: the point at the
// cone axis on the sphere surface (q_i in Algorithm 2).
func ConeTarget(r *Region) geom.Vec {
	return r.Apex.Add(r.Ray.Scale(r.Radius))
}

// SampleInConeInto draws a point uniformly-ish inside region r's cone
// into dst (grown as needed; nil allocates), by rejection from the
// enclosing ball sector: a direction within HalfAngle of the axis and a
// radius r^(1/d)-distributed. The direction is produced by perturbing the
// axis and re-normalizing, which concentrates slightly toward the axis —
// acceptable for RRT biasing (the paper's growth is biased toward the
// region target anyway). The draws do not depend on dst.
func SampleInConeInto(dst geom.Vec, reg *Region, r *rng.Stream) geom.Vec {
	d := reg.Apex.Dim()
	h, rr := reg.HalfAngle, reg.Ray.Norm2()
	cosH, sinH := math.Cos(h), math.Sin(h)
	for tries := 0; tries < 64; tries++ {
		dst = geom.SampleOnSphereInto(dst, d, r)
		if !withinAngle(dst.Dot(reg.Ray), dst.Norm2(), rr, h, cosH) {
			// Blend toward the axis instead of rejecting forever for
			// narrow cones.
			blend := r.Float64()
			scale := blend * sinH
			var n2 float64
			for i := range dst {
				dst[i] = reg.Ray[i]*(1-blend) + dst[i]*scale
				n2 += dst[i] * dst[i]
			}
			if n2 > 0 {
				dst.ScaleInPlace(1 / math.Sqrt(n2))
			}
		}
		if withinAngle(dst.Dot(reg.Ray), dst.Norm2(), rr, h, cosH) {
			rad := reg.Radius * math.Pow(r.Float64(), 1/float64(d))
			for i := range dst {
				dst[i] = reg.Apex[i] + dst[i]*rad
			}
			return dst
		}
	}
	// Fall back to the axis.
	rad := reg.Radius * r.Float64()
	dst = geom.CopyInto(dst, reg.Apex)
	for i := range dst {
		dst[i] += reg.Ray[i] * rad
	}
	return dst
}

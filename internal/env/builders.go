package env

import (
	"math"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// centeredCube returns a d-dimensional unit workspace with a single
// hypercube obstacle centered in it (equidistant from the bounding box, as
// in the paper's theoretical model) sized to block the given volume
// fraction.
func centeredCube(name string, dim int, blocked float64) *Environment {
	e := &Environment{
		Name:   name,
		Bounds: unitBox(dim),
	}
	if blocked > 0 {
		side := math.Pow(blocked, 1/float64(dim))
		lo := make(geom.Vec, dim)
		hi := make(geom.Vec, dim)
		for i := 0; i < dim; i++ {
			lo[i] = 0.5 - side/2
			hi[i] = 0.5 + side/2
		}
		e.Obstacles = []Obstacle{BoxObstacle{Box: geom.NewAABB(lo, hi)}}
	}
	return e
}

func unitBox(dim int) geom.AABB {
	lo := make(geom.Vec, dim)
	hi := make(geom.Vec, dim)
	for i := range hi {
		hi[i] = 1
	}
	return geom.NewAABB(lo, hi)
}

// MedCube is the paper's med-cube environment: a 3D unit workspace with a
// single centered cube blocking roughly 24 % of the volume.
func MedCube() *Environment { return centeredCube("med-cube", 3, 0.24) }

// SmallCube is the paper's small-cube environment (~6 % blocked).
func SmallCube() *Environment { return centeredCube("small-cube", 3, 0.06) }

// Free is the paper's free environment: no obstacles.
func Free() *Environment { return centeredCube("free", 3, 0) }

// Model2D is the theoretical model environment of Section IV-B: a 2D
// workspace with a single square obstacle equidistant from the bounding
// box, blocking the given fraction (the paper's plots correspond to a
// substantial central obstacle; 0.25 is the default used in our
// experiments when not specified).
func Model2D(blocked float64) *Environment {
	return centeredCube("model-2d", 2, blocked)
}

// Mixed is the cluttered 3D environment used in the RRT experiments,
// roughly 60 % blocked: disjoint boxes on a jittered lattice with density
// skewed toward one half of the workspace, which is what makes region
// workloads heterogeneous.
func Mixed() *Environment { return cluttered("mixed", 0.60, 97) }

// Mixed30 is the 30 %-blocked variant of Mixed.
func Mixed30() *Environment { return cluttered("mixed-30", 0.30, 131) }

// cluttered builds a 3D environment with disjoint random boxes covering
// close to the requested fraction of the unit workspace. Boxes sit on a
// jittered lattice (one box per cell, sized to the cell's local density
// target) so high blockage fractions are reachable with guaranteed
// disjointness, which keeps free-volume accounting exact. Density is
// skewed: cells with x < 0.6 carry 1.5× the average, the rest 0.25× —
// the heterogeneity that makes radial RRT loads imbalanced.
func cluttered(name string, target float64, seed uint64) *Environment {
	e := &Environment{Name: name, Bounds: unitBox(3)}
	r := rng.New(seed)
	const m = 6 // lattice cells per dimension
	cell := 1.0 / m
	for ix := 0; ix < m; ix++ {
		for iy := 0; iy < m; iy++ {
			for iz := 0; iz < m; iz++ {
				cx := (float64(ix) + 0.5) * cell
				// Density weights average to 1 over the lattice
				// (0.6*1.5 + 0.4*0.25 = 1).
				w := 0.25
				if cx < 0.6 {
					w = 1.5
				}
				frac := target * w
				if frac <= 0 {
					continue
				}
				if frac > 0.92 {
					frac = 0.92
				}
				side := cell * math.Pow(frac, 1.0/3)
				// Jitter the box inside its cell so the scene is not a
				// perfect lattice.
				slack := cell - side
				lo := geom.V(
					float64(ix)*cell+r.Float64()*slack,
					float64(iy)*cell+r.Float64()*slack,
					float64(iz)*cell+r.Float64()*slack,
				)
				hi := geom.V(lo[0]+side, lo[1]+side, lo[2]+side)
				e.Obstacles = append(e.Obstacles, BoxObstacle{Box: geom.NewAABB(lo, hi)})
			}
		}
	}
	return e
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Walls builds a 3D environment with nWalls slab obstacles perpendicular
// to the x axis, each pierced by a single narrow doorway. Doorway centers
// alternate between low and high y so paths must weave, concentrating
// planner work near the passages.
func Walls(nWalls int, doorWidth float64) *Environment {
	e := &Environment{Name: "walls", Bounds: unitBox(3)}
	if nWalls < 1 {
		return e
	}
	thick := 0.04
	for w := 0; w < nWalls; w++ {
		x := float64(w+1) / float64(nWalls+1)
		doorY := 0.2
		if w%2 == 1 {
			doorY = 0.8
		}
		yLo, yHi := doorY-doorWidth/2, doorY+doorWidth/2
		// Wall below the door.
		if yLo > 0 {
			e.Obstacles = append(e.Obstacles, BoxObstacle{
				Box: geom.Box3(x-thick/2, 0, 0, x+thick/2, yLo, 1),
			})
		}
		// Wall above the door.
		if yHi < 1 {
			e.Obstacles = append(e.Obstacles, BoxObstacle{
				Box: geom.Box3(x-thick/2, yHi, 0, x+thick/2, 1, 1),
			})
		}
	}
	return e
}

// Maze2D builds a 2D corridor maze for the examples: alternating wall
// segments leaving gaps on opposite sides.
func Maze2D(nWalls int, gap float64) *Environment {
	e := &Environment{Name: "maze-2d", Bounds: unitBox(2)}
	thick := 0.03
	for w := 0; w < nWalls; w++ {
		x := float64(w+1) / float64(nWalls+1)
		if w%2 == 0 {
			e.Obstacles = append(e.Obstacles, BoxObstacle{
				Box: geom.Box2(x-thick/2, gap, x+thick/2, 1),
			})
		} else {
			e.Obstacles = append(e.Obstacles, BoxObstacle{
				Box: geom.Box2(x-thick/2, 0, x+thick/2, 1-gap),
			})
		}
	}
	return e
}

// Walls45 builds a 2D environment with diagonal (45-degree) wall slabs —
// the "walls-45" variant named in the paper's Figure 8 caption. Each wall
// is a convex quadrilateral running corner-to-corner with a gap in the
// middle, so free space is a zig-zag of diagonal corridors.
func Walls45(nWalls int, gap float64) *Environment {
	e := &Environment{Name: "walls-45", Bounds: unitBox(2)}
	thick := 0.03
	for w := 0; w < nWalls; w++ {
		// Diagonal line x - y = c, alternating gap position.
		c := -0.6 + 1.2*float64(w+1)/float64(nWalls+1)
		lo, hi := 0.0, 1.0
		gapAt := 0.3
		if w%2 == 1 {
			gapAt = 0.7
		}
		// Two slab segments along the diagonal, leaving [gapAt-gap/2,
		// gapAt+gap/2] free (parameterized by y).
		for _, seg := range [][2]float64{{lo, gapAt - gap/2}, {gapAt + gap/2, hi}} {
			y0, y1 := seg[0], seg[1]
			if y1 <= y0 {
				continue
			}
			quad := []geom.Vec{
				geom.V(clamp01(y0+c), y0),
				geom.V(clamp01(y0+c+thick), y0),
				geom.V(clamp01(y1+c+thick), y1),
				geom.V(clamp01(y1+c), y1),
			}
			if poly, ok := NewConvexPolygon(quad); ok {
				e.Obstacles = append(e.Obstacles, poly)
			}
		}
	}
	return e
}

// Corner2D builds the imbalanced 2D scene of the paper's Figure 3: most of
// the workspace open, with dense clutter packed into one quadrant so a
// naive uniform mapping of regions to processors overloads the processors
// owning the open space (where sampling succeeds) relative to those owning
// the cluttered quadrant.
func Corner2D() *Environment {
	e := &Environment{Name: "corner-2d", Bounds: unitBox(2)}
	r := rng.New(7)
	boxes := []geom.AABB{}
	var blocked float64
	for attempts := 0; blocked < 0.10 && attempts < 5000; attempts++ {
		side := r.Range(0.02, 0.08)
		cx := r.Range(0.55, 1)
		cy := r.Range(0, 0.45)
		lo := geom.V(clamp01(cx-side/2), clamp01(cy-side/2))
		hi := geom.V(clamp01(cx+side/2), clamp01(cy+side/2))
		box := geom.NewAABB(lo, hi)
		overlap := false
		for _, b := range boxes {
			if b.IntersectionVolume(box) > 0 {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		boxes = append(boxes, box)
		blocked += box.Volume()
	}
	for _, b := range boxes {
		e.Obstacles = append(e.Obstacles, BoxObstacle{Box: b})
	}
	return e
}

// named is the one table of the paper environments by experiment name,
// in listing order; ByName and Names both read it.
var named = []struct {
	name  string
	build func() *Environment
}{
	{"med-cube", MedCube},
	{"small-cube", SmallCube},
	{"free", Free},
	{"mixed", Mixed},
	{"mixed-30", Mixed30},
	{"walls", func() *Environment { return Walls(3, 0.15) }},
	{"walls-45", func() *Environment { return Walls45(3, 0.2) }},
	{"maze-2d", func() *Environment { return Maze2D(4, 0.2) }},
	{"corner-2d", Corner2D},
	{"model-2d", func() *Environment { return Model2D(0.25) }},
}

// ByName builds a paper environment by its experiment name, or returns
// nil if the name is not one of Names.
func ByName(name string) *Environment {
	for _, e := range named {
		if e.name == name {
			return e.build()
		}
	}
	return nil
}

// Names lists the environments known to ByName. Testing a name for
// membership builds nothing.
func Names() []string {
	names := make([]string, len(named))
	for i, e := range named {
		names[i] = e.name
	}
	return names
}

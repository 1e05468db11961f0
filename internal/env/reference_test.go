package env

import (
	"math"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// slabSegmentHitsAny is the batched box kernel as it was before the
// axis-range cull: every segment steps through geom.Slab axis by axis,
// exactly as AABB.SegmentIntersects did. TestSegmentCullMatchesSlab and
// FuzzSegmentCullMatchesSlab hold boxSegmentHitsAny to it.
func slabSegmentHitsAny(b geom.AABB, acols, bcols [][]float64, n int) (bool, int) {
	d := len(b.Lo)
	for i := 0; i < n; i++ {
		tMin, tMax, hit := 0.0, 1.0, true
		for k := 0; k < d && hit; k++ {
			av := acols[k][i]
			tMin, tMax, hit = geom.Slab(b.Lo[k], b.Hi[k], av, bcols[k][i]-av, tMin, tMax)
		}
		if hit {
			return true, i
		}
	}
	return false, 0
}

// slabSegmentsFree is SegmentsFreeSoA's obstacle-major sweep with
// slabSegmentHitsAny as its box kernel, over a scene of boxes and
// spheres.
func slabSegmentsFree(e *Environment, acols, bcols [][]float64, n int) (free bool, tests int) {
	for _, o := range e.Obstacles {
		var hit bool
		var i int
		switch ob := o.(type) {
		case BoxObstacle:
			hit, i = slabSegmentHitsAny(ob.Box, acols, bcols, n)
		case SphereObstacle:
			hit, i = sphereSegmentHitsAny(ob, acols, bcols, n)
		default:
			panic("slabSegmentsFree: boxes and spheres only")
		}
		if hit {
			return false, tests + i + 1
		}
		tests += n
	}
	return true, tests
}

// The cull's constants as the tests see them: coordinates at and across
// the guard range, and ends a gap outside a face.
const (
	testCullRange = 1 << 20
	testCullGap   = 0x1p-28
)

// cullScene is a d-dimensional scene scaled by s: two boxes (the second
// a thin slab) and a sphere, so a batch's test count runs across
// obstacles and a rejected batch can stop at any of them.
func cullScene(d int, s float64) *Environment {
	lo, hi := make(geom.Vec, d), make(geom.Vec, d)
	slo, shi := make(geom.Vec, d), make(geom.Vec, d)
	c := make(geom.Vec, d)
	blo, bhi := make(geom.Vec, d), make(geom.Vec, d)
	for k := 0; k < d; k++ {
		lo[k], hi[k] = 0.3*s, 0.7*s
		slo[k], shi[k] = -0.5*s, 0.1*s
		c[k] = 0.9 * s
		blo[k], bhi[k] = -s, 2*s
	}
	slo[d-1], shi[d-1] = -0.25*s, -0.25*s
	return &Environment{
		Name:   "cull",
		Bounds: geom.AABB{Lo: blo, Hi: bhi},
		Obstacles: []Obstacle{
			BoxObstacle{Box: geom.AABB{Lo: lo, Hi: hi}},
			BoxObstacle{Box: geom.AABB{Lo: slo, Hi: shi}},
			SphereObstacle{Center: c, Radius: 0.05 * s},
		},
	}
}

// ulps returns x moved by n units in the last place (n may be negative).
func ulps(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// nearFace draws a coordinate where the cull and the slab could part:
// on a face of b's axis k or a few ulps either side, a gap outside it,
// at and beyond the guard range, non-finite, or anywhere in the scene.
func nearFace(r *rng.Stream, b geom.AABB, k int, s float64) float64 {
	face := b.Lo[k]
	gap := -testCullGap
	if r.Intn(2) == 0 {
		face, gap = b.Hi[k], testCullGap
	}
	steps := []int{0, 1, 2, 4, -1, -2, -4}
	switch r.Intn(8) {
	case 0:
		return ulps(face, steps[r.Intn(len(steps))])
	case 1:
		return ulps(face+gap, steps[r.Intn(len(steps))])
	case 2:
		m := []float64{testCullRange, -testCullRange}[r.Intn(2)]
		return ulps(m, steps[r.Intn(len(steps))])
	case 3:
		return []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}[r.Intn(5)]
	default:
		return r.Range(-1.2*s, 2.2*s)
	}
}

// cullBatch draws n segments in e's dimension. An axis's far end is the
// near end (zero length), the near end nudged below the slab step's
// parallel threshold either way, another near-face coordinate, or a
// short step; a whole segment may be zero-length.
func cullBatch(r *rng.Stream, e *Environment, n int, s float64) (acols, bcols [][]float64) {
	d := e.Dim()
	acols, bcols = make([][]float64, d), make([][]float64, d)
	for k := range acols {
		acols[k], bcols[k] = make([]float64, n), make([]float64, n)
	}
	for i := 0; i < n; i++ {
		point := r.Intn(8) == 0
		for k := 0; k < d; k++ {
			box := e.Obstacles[r.Intn(2)].(BoxObstacle).Box
			a := nearFace(r, box, k, s)
			b := a
			switch c := r.Intn(6); {
			case point || c == 0:
			case c == 1:
				b = a + 4e-16
			case c == 2:
				b = a - 4e-16
			case c == 3:
				b = a + r.Range(-0.3, 0.3)*s
			default:
				b = nearFace(r, box, k, s)
			}
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			acols[k][i], bcols[k][i] = a, b
		}
	}
	return acols, bcols
}

// matchSlab requires boxSegmentHitsAny to answer every box of e as
// slabSegmentHitsAny does (hit and first index), and SegmentsFreeSoA to
// return the reference sweep's (free, tests), rejected batches included.
func matchSlab(t *testing.T, what string, e *Environment, acols, bcols [][]float64, n int) {
	t.Helper()
	for j, o := range e.Obstacles {
		if ob, ok := o.(BoxObstacle); ok {
			gh, gi := boxSegmentHitsAny(ob.Box, acols, bcols, n)
			wh, wi := slabSegmentHitsAny(ob.Box, acols, bcols, n)
			if gh != wh || gi != wi {
				t.Fatalf("%s: box %d: kernel (%v, %d), slab (%v, %d)\n a %v\n b %v", what, j, gh, gi, wh, wi, acols, bcols)
			}
		}
	}
	var sc BatchScratch
	gf, gt := e.SegmentsFreeSoA(acols, bcols, n, &sc)
	wf, wt := slabSegmentsFree(e, acols, bcols, n)
	if gf != wf || gt != wt {
		t.Fatalf("%s: SegmentsFreeSoA (%v, %d), slab sweep (%v, %d)", what, gf, gt, wf, wt)
	}
}

// TestSegmentCullMatchesSlab holds the batched box kernel to the slab
// sweep it had before the axis-range cull, on batches built to sit where
// a cull could go wrong: ends on a face and 1, 2 or 4 ulps either side,
// a gap outside a face, zero-length and nearly parallel axes, ends at and
// across the guard range, infinities and NaN; in 2, 3 and 4 dimensions
// (4 keeps the loop without the cull), at scales 1e-6 to 1e9, so that the boxes of
// the largest scene lie beyond the guard range themselves.
func TestSegmentCullMatchesSlab(t *testing.T) {
	r := rng.New(29)
	for _, d := range []int{2, 3, 4} {
		for _, s := range []float64{1e-6, 1e-3, 1, 1e3, 1e6, 1e9} {
			e := cullScene(d, s)
			for trial := 0; trial < 3000; trial++ {
				n := 1 + r.Intn(12)
				acols, bcols := cullBatch(r, e, n, s)
				matchSlab(t, e.Name, e, acols, bcols, n)
			}
		}
	}
}

// FuzzSegmentCullMatchesSlab is TestSegmentCullMatchesSlab with one
// segment's first axis and one box's first-axis faces chosen by the
// fuzzer, raw: any float pair, a reversed or NaN face included.
func FuzzSegmentCullMatchesSlab(f *testing.F) {
	f.Add(uint64(1), uint8(3), 0.3, 0.7, 0.3-testCullGap, 0.1)
	f.Add(uint64(2), uint8(2), 0.3, 0.7, math.NaN(), 0.9)
	f.Add(uint64(3), uint8(3), -1.0, float64(testCullRange), 0.5, math.Inf(1))
	f.Add(uint64(4), uint8(4), 0.7, 0.3, -2.0, -1.0)
	f.Fuzz(func(t *testing.T, seed uint64, db uint8, lo, hi, a, b float64) {
		r := rng.New(seed)
		d := 2 + int(db%3)
		scales := []float64{1e-6, 1, 1e6, 1e9}
		s := scales[seed%uint64(len(scales))]
		e := cullScene(d, s)
		box := e.Obstacles[0].(BoxObstacle).Box
		box.Lo[0], box.Hi[0] = lo, hi
		n := 1 + r.Intn(8)
		acols, bcols := cullBatch(r, e, n, s)
		acols[0][0], bcols[0][0] = a, b
		matchSlab(t, "fuzz", e, acols, bcols, n)
	})
}

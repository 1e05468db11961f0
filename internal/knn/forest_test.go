package knn

import (
	"fmt"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// forestOf builds one tree per part — every other one by BuildBoxed, so
// both recorded and measured boxes are tested — and returns the forest
// with the concatenated points, which the reference answers are computed
// over.
func forestOf(parts [][]geom.Vec) (Forest, []geom.Vec) {
	trees := make([]*KDTree, len(parts))
	var all []geom.Vec
	for i, p := range parts {
		if i%2 == 0 {
			trees[i] = BuildBoxed(p)
		} else {
			trees[i] = Build(p)
		}
		all = append(all, p...)
	}
	return NewForest(trees), all
}

// checkForest holds the forest to brute force over the concatenated
// points — kNN for every k from 1 past n, with and without a skip, and
// radius — and to the single tree over the same points, whose evals a
// forest of one must repeat.
func checkForest(t *testing.T, ctx string, f Forest, all []geom.Vec, qs []geom.Vec, radii []float64) {
	t.Helper()
	one := Build(all)
	var sc, ref QueryScratch
	var got, want []Result
	for qi, q := range qs {
		for k := 1; k <= len(all)+2; k++ {
			for _, skip := range []int{-1, 0, len(all) / 2, len(all) - 1} {
				c := fmt.Sprintf("%s q%d k=%d skip=%d", ctx, qi, k, skip)
				var ev int
				got, ev = f.NearestInto(&sc, q, k, skip, got[:0])
				want, _ = BruteNearestInto(&ref, all, q, k, skip, want[:0])
				resultsEqual(t, c, got, want)
				single, sev := one.NearestInto(&ref, q, k, skip, nil)
				resultsEqual(t, c+" single tree", got, single)
				if len(f.trees) == 1 && ev != sev {
					t.Fatalf("%s: forest of one evals %d, tree %d", c, ev, sev)
				}
			}
		}
		for _, radius := range radii {
			got, _ = f.RadiusInto(&sc, q, radius, got[:0])
			resultsEqual(t, fmt.Sprintf("%s q%d radius %v", ctx, qi, radius), got, BruteRadiusInto(all, q, radius, nil))
		}
	}
}

// gridPoints draws points on a coarse grid, so distances tie often.
func gridPoints(r *rng.Stream, n, d int) []geom.Vec {
	pts := randomPoints(r, n, d)
	for _, p := range pts {
		for j := range p {
			p[j] = float64(int(p[j]*4)) / 4
		}
	}
	return pts
}

func TestForestMatchesBrute(t *testing.T) {
	r := rng.New(73)
	dup := gridPoints(r, 6, 2)
	shifted := randomPoints(r, 20, 3)
	for _, p := range shifted {
		p[0] += 0.5 // overlaps the unit-cube parts by half
	}
	cases := []struct {
		name  string
		parts [][]geom.Vec
	}{
		{"one", [][]geom.Vec{randomPoints(r, 40, 3)}},
		{"one-empty", [][]geom.Vec{nil}},
		{"all-empty", [][]geom.Vec{nil, nil}},
		{"empty-trees", [][]geom.Vec{nil, randomPoints(r, 15, 3), nil, nil, randomPoints(r, 9, 3), nil}},
		{"overlapping", [][]geom.Vec{randomPoints(r, 20, 3), shifted, randomPoints(r, 1, 3), randomPoints(r, 12, 3)}},
		{"ties", [][]geom.Vec{gridPoints(r, 25, 2), gridPoints(r, 25, 2), gridPoints(r, 3, 2)}},
		// The same points in every tree: every distance ties across trees.
		{"duplicates", [][]geom.Vec{dup, dup, dup[:2], dup}},
	}
	for _, c := range cases {
		f, all := forestOf(c.parts)
		d := 3
		if len(all) > 0 {
			d = len(all[0])
		}
		qs := gridPoints(r, 4, d)
		qs = append(qs, randomPoints(r, 4, d)...)
		if len(all) > 0 {
			qs = append(qs, all[0], all[len(all)-1])
		}
		checkForest(t, c.name, f, all, qs, []float64{0, 0.25, 0.5, 2})
	}
}

// FuzzForestMatchesBrute splits fuzzer-chosen grid points into trees at
// fuzzer-chosen cuts, so empty trees, duplicates across trees and exact
// distance ties all occur.
func FuzzForestMatchesBrute(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{2, 0, 3}, []byte{5, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 8, 8}, []byte{1, 1, 1, 1}, []byte{4, 4, 0, 0})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}, []byte{7}, []byte{1, 9, 2})
	f.Add([]byte{}, []byte{0, 0}, []byte{3, 3})
	f.Fuzz(func(t *testing.T, coords, cuts, query []byte) {
		if len(coords) > 120 || len(cuts) > 12 || len(query) < 2 {
			t.Skip()
		}
		grid := func(b byte) float64 { return float64(b%9) / 4 }
		var parts [][]geom.Vec
		var part []geom.Vec
		c := 0
		for i := 0; i+1 < len(coords); i += 2 {
			for c < len(cuts) && int(cuts[c])*2 <= i {
				parts, part = append(parts, part), nil
				c++
			}
			part = append(part, geom.V(grid(coords[i]), grid(coords[i+1])))
		}
		parts = append(parts, part)
		forest, all := forestOf(parts)
		q := geom.V(grid(query[0]), grid(query[1]))
		checkForest(t, "fuzz", forest, all, []geom.Vec{q}, []float64{0, 0.25, float64(len(query)) / 4})
	})
}

// TestBuildBoxedIsBuild checks that BuildBoxed builds Build's tree and
// records the points' bounding box, lows then highs.
func TestBuildBoxedIsBuild(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 37} {
		pts := randomPoints(r, n, 3)
		got, want := BuildBoxed(pts), Build(pts)
		sameTree(t, fmt.Sprintf("n=%d", n), got, want)
		if n == 0 {
			if len(got.box) != 0 {
				t.Fatalf("n=0: box %v, want none", got.box)
			}
			continue
		}
		for j := range 3 {
			lo, hi := pts[0][j], pts[0][j]
			for _, p := range pts {
				lo, hi = min(lo, p[j]), max(hi, p[j])
			}
			if got.box[j] != lo || got.box[3+j] != hi {
				t.Fatalf("n=%d axis %d: box [%v, %v], want [%v, %v]", n, j, got.box[j], got.box[3+j], lo, hi)
			}
		}
	}
}

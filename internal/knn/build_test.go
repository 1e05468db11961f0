package knn

import (
	"fmt"
	"math/bits"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// sortIndexByAxis sorts idx ascending by (pts[i][axis], i): the full
// sort every split used to do. Kept as the reference the selection-built
// tree is compared against.
func sortIndexByAxis(idx []int32, pts []geom.Vec, axis int) {
	for len(idx) > 12 {
		mid := medianOfThree(idx, pts, axis)
		p := partitionIndex(idx, pts, axis, mid)
		if p < len(idx)-p-1 {
			sortIndexByAxis(idx[:p], pts, axis)
			idx = idx[p+1:]
		} else {
			sortIndexByAxis(idx[p+1:], pts, axis)
			idx = idx[:p]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && axisBefore(pts, axis, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// referenceBuild is the sort-based builder: every range fully sorted
// along its axis before the median is read off.
func referenceBuild(pts []geom.Vec) *KDTree {
	t := &KDTree{pts: pts}
	if len(pts) == 0 {
		return t
	}
	t.dim = len(pts[0])
	t.prepare(len(pts))
	var rec func(lo, hi, depth int)
	rec = func(lo, hi, depth int) {
		if hi <= lo {
			return
		}
		axis := depth % t.dim
		mid := (lo + hi) / 2
		sortIndexByAxis(t.index[lo:hi], pts, axis)
		left, right := int32(-1), int32(-1)
		if lo < mid {
			left = int32((lo + mid) / 2)
		}
		if mid+1 < hi {
			right = int32((mid + 1 + hi) / 2)
		}
		t.nodes[mid] = kdNode{left: left, right: right}
		rec(lo, mid, depth+1)
		rec(mid+1, hi, depth+1)
	}
	rec(0, len(pts), 0)
	return t
}

func sameTree(t *testing.T, ctx string, got, want *KDTree) {
	t.Helper()
	if len(got.index) != len(want.index) || len(got.nodes) != len(want.nodes) {
		t.Fatalf("%s: sizes %d/%d, want %d/%d", ctx, len(got.index), len(got.nodes), len(want.index), len(want.nodes))
	}
	for i := range want.index {
		if got.index[i] != want.index[i] {
			t.Fatalf("%s: index[%d] = %d, want %d", ctx, i, got.index[i], want.index[i])
		}
		if got.nodes[i] != want.nodes[i] {
			t.Fatalf("%s: nodes[%d] = %+v, want %+v", ctx, i, got.nodes[i], want.nodes[i])
		}
	}
}

// treeInputs are the point distributions the tree-identity tests run on.
var treeInputs = []struct {
	name string
	gen  func(r *rng.Stream, n, d int) []geom.Vec
}{
	{"uniform", randomPoints},
	// Coordinates from a grid of four values: most comparisons tie on the
	// coordinate and fall through to the index.
	{"equalcoords", func(r *rng.Stream, n, d int) []geom.Vec {
		pts := randomPoints(r, n, d)
		for _, p := range pts {
			for j := range p {
				p[j] = float64(int(p[j]*4)) / 4
			}
		}
		return pts
	}},
	// A handful of distinct points, each repeated many times.
	{"duplicates", func(r *rng.Stream, n, d int) []geom.Vec {
		base := randomPoints(r, 5, d)
		pts := make([]geom.Vec, n)
		for i := range pts {
			pts[i] = base[r.Intn(len(base))].Clone()
		}
		return pts
	}},
}

// TestSelectionBuildIsTheSortedTree is the bit-identity contract of the
// selection-based build: Build, Reset on a reused tree and BuildParallel
// produce the arrays of the sort-based reference element for element,
// and queries therefore return the same hits AND the same evaluation
// counts (which feed Counters.KNNEvals and so virtual time).
func TestSelectionBuildIsTheSortedTree(t *testing.T) {
	reused := &KDTree{}
	reused.Reset(randomPoints(rng.New(99), 3000, 4)) // storage from an unrelated build
	for _, in := range treeInputs {
		for _, d := range []int{2, 3, 6} {
			for _, n := range []int{0, 1, 2, 13, 1000, 5000} {
				ctx := fmt.Sprintf("%s d=%d n=%d", in.name, d, n)
				r := rng.New(uint64(7*n + d))
				pts := in.gen(r, n, d)
				want := referenceBuild(pts)
				built := Build(pts)
				sameTree(t, ctx+" Build", built, want)
				reused.Reset(pts)
				sameTree(t, ctx+" Reset", reused, want)
				sameTree(t, ctx+" BuildParallel", BuildParallel(pts, 4), want)
				if n == 0 {
					continue
				}

				qs := randomPoints(r, 8, d)
				for qi, q := range qs {
					got, ge := built.Nearest(q, 9)
					ref, re := want.Nearest(q, 9)
					resultsEqual(t, fmt.Sprintf("%s Nearest %d", ctx, qi), got, ref)
					if ge != re {
						t.Fatalf("%s Nearest %d: evals %d, want %d", ctx, qi, ge, re)
					}
					got, ge = built.RadiusInto(new(QueryScratch), q, 0.3, nil)
					ref, re = want.RadiusInto(new(QueryScratch), q, 0.3, nil)
					resultsEqual(t, fmt.Sprintf("%s Radius %d", ctx, qi), got, ref)
					if ge != re {
						t.Fatalf("%s Radius %d: evals %d, want %d", ctx, qi, ge, re)
					}
				}
				var sc QueryScratch
				got, goffs, ge := built.NearestBatch(&sc, qs, 5, -1, nil, nil)
				ref, roffs, re := want.NearestBatch(&sc, qs, 5, -1, nil, nil)
				resultsEqual(t, ctx+" NearestBatch", got, ref)
				if ge != re || fmt.Sprint(goffs) != fmt.Sprint(roffs) {
					t.Fatalf("%s NearestBatch: evals %d offs %v, want %d %v", ctx, ge, goffs, re, roffs)
				}
			}
		}
	}
}

// depth returns the height of the subtree rooted at node.
func (t *KDTree) depth(node int32) int {
	if node < 0 {
		return 0
	}
	return 1 + max(t.depth(t.nodes[node].left), t.depth(t.nodes[node].right))
}

// TestSelectionBuildDegenerateInputs builds over inputs that defeat a
// selection ordering by coordinate alone — every point equal on an axis
// (or on all of them), and inputs arriving sorted either way — and
// asserts the structural bound instead of a time: the tree is the
// balanced one, ⌈log2(n+1)⌉ levels, which bounds the build's (lo, hi)
// recursion and every query's descent alike. The (coordinate, index)
// order is strict, so ties cannot pile up on one side of a pivot.
func TestSelectionBuildDegenerateInputs(t *testing.T) {
	const n = 60000
	r := rng.New(5)
	inputs := map[string][]geom.Vec{}
	flat := randomPoints(r, n, 3)
	for _, p := range flat {
		p[1] = 0.5
	}
	inputs["equal on one axis"] = flat
	same := make([]geom.Vec, n)
	asc := make([]geom.Vec, n)
	desc := make([]geom.Vec, n)
	for i := range same {
		same[i] = geom.V(0.25, 0.5, 0.75)
		asc[i] = geom.V(float64(i), float64(i), float64(i))
		desc[i] = geom.V(float64(n-i), float64(n-i), float64(n-i))
	}
	inputs["all equal"] = same
	inputs["ascending"] = asc
	inputs["descending"] = desc
	for name, pts := range inputs {
		tree := Build(pts)
		if got, want := tree.depth(tree.root()), bits.Len(uint(n)); got != want {
			t.Errorf("%s: depth %d, want %d", name, got, want)
		}
		hits, _ := tree.Nearest(pts[n/3], 1)
		if len(hits) != 1 || hits[0].Dist2 != 0 {
			t.Errorf("%s: own point not found: %+v", name, hits)
		}
	}
}

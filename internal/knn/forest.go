package knn

import (
	"math"

	"parmp/internal/geom"
)

// Forest answers queries over several kd-trees as one point set — tree
// i's point j is global index j plus the point count of the trees before
// it — exactly as one tree over the concatenated points does: the trees fill
// one bounded heap, and a tree is passed over only when its bounding box
// is strictly farther than the heap's worst hit, the admission a tree
// gives its far subtrees.
type Forest struct {
	trees []*KDTree
	bases []int // first global index of each tree
	// boxes holds tree i's bounding box at [2*dim*i, 2*dim*(i+1)), in one
	// slab so that testing the trees reads none of them; an empty tree's
	// is inverted, +Inf away. Nil for a forest of one, which tests none.
	boxes []float64
	dim   int
}

// oneBase is the bases of every forest of one.
var oneBase = []int{0}

// NewForest returns the forest over trees, which it keeps: neither the
// slice nor a tree may be mutated afterwards. A tree built by BuildBoxed
// lends its box; any other's is measured here. A forest of no points is
// the empty forest.
func NewForest(trees []*KDTree) Forest {
	total, dim := 0, 0
	for _, t := range trees {
		total, dim = total+t.Len(), max(dim, t.dim)
	}
	switch {
	case total == 0:
		return Forest{}
	case len(trees) == 1:
		return Forest{trees: trees, bases: oneBase}
	}
	f := Forest{trees: trees, bases: make([]int, len(trees)), boxes: make([]float64, 2*dim*len(trees)), dim: dim}
	for i, n := 0, 0; i < len(trees); i++ {
		box, t := f.boxes[2*dim*i:2*dim*(i+1)], trees[i]
		if len(t.box) == len(box) {
			copy(box, t.box)
		} else {
			fillBox(box, t.pts)
		}
		f.bases[i], n = n, n+t.Len()
	}
	return f
}

// fillBox writes the bounding box of pts into box, lows then highs. No
// points leave it inverted, +Inf away from every query.
func fillBox(box []float64, pts []geom.Vec) {
	dim := len(box) / 2
	for j := range dim {
		box[j], box[dim+j] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range pts {
		for j, c := range p {
			box[j], box[dim+j] = min(box[j], c), max(box[dim+j], c)
		}
	}
}

// boxDist2 is the squared distance from q to tree i's box. Summed in
// geom.Vec.Dist2's order, each term at most the point's, it never
// exceeds q's Dist2 to any of the tree's points.
func (f Forest) boxDist2(i int, q geom.Vec) float64 {
	box := f.boxes[2*f.dim*i:]
	var s float64
	for j, c := range q {
		d := max(box[j]-c, c-box[f.dim+j], 0)
		s += d * d
	}
	return s
}

// NearestInto is KDTree.NearestInto over the forest, skip a global
// index. The tree whose box is nearest q is searched first, so the heap
// is tight before the others are tested.
func (f Forest) NearestInto(sc *QueryScratch, q geom.Vec, k, skip int, dst []Result) ([]Result, int) {
	if k <= 0 || len(f.trees) == 0 {
		return dst, 0
	}
	sc.reset(k)
	first := 0
	if f.boxes != nil {
		nearest := math.Inf(1)
		for i := range f.trees {
			if d := f.boxDist2(i, q); d < nearest {
				first, nearest = i, d
			}
		}
	}
	evals := f.trees[first].search(sc, q, skip-f.bases[first], f.bases[first])
	for i, t := range f.trees {
		if i != first && (!sc.full() || f.boxDist2(i, q) <= sc.worst().Dist2) {
			evals += t.search(sc, q, skip-f.bases[i], f.bases[i])
		}
	}
	return sc.drainSorted(dst), evals
}

// RadiusInto is KDTree.RadiusInto over the trees whose box meets the ball.
func (f Forest) RadiusInto(sc *QueryScratch, q geom.Vec, radius float64, dst []Result) ([]Result, int) {
	if radius < 0 {
		return dst, 0
	}
	r2 := radius * radius
	start, evals := len(dst), 0
	for i, t := range f.trees {
		if f.boxes == nil || f.boxDist2(i, q) <= r2 {
			var ev int
			dst, ev = t.radiusAppend(sc, q, r2, f.bases[i], dst)
			evals += ev
		}
	}
	sortResults(dst[start:])
	return dst, evals
}

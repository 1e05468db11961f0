// Package knn provides k-nearest-neighbour search over point sets: a
// kd-tree for the planners' connection phases and a brute-force reference
// used for cross-validation in tests.
//
// Restricting connection attempts to nearby samples is what makes the
// subdivision approach local; each region keeps its own kd-tree, so
// queries never leave the owning processor, and a published snapshot
// queries the whole roadmap through a Forest of the regions' trees,
// building nothing. A build is a median selection per subtree into
// reused storage (see KDTree), O(n log n) and allocation-free on a
// reused tree. All query entry points have scratch-based *Into variants
// (see QueryScratch) that are allocation-free in steady state — the hot
// sampling/connection path runs through those.
package knn

import (
	"parmp/internal/geom"
)

// Result is one neighbour hit.
type Result struct {
	Index int     // index into the point set supplied at build time
	Dist2 float64 // squared Euclidean distance to the query
}

// resultBefore is the single ordering used everywhere in this package:
// ascending by squared distance, ties broken by ascending index. The
// deterministic tie-break means every query answer — kd-tree, brute
// force, dynamic index, with or without scratch — is a pure function of
// the point set, so planner parity tests cannot flake on equal distances.
func resultBefore(a, b Result) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.Index < b.Index
}

// KDTree is a static kd-tree over d-dimensional points.
//
// Node storage is indexed by each subtree's median position: the node
// whose point is index[m] lives at nodes[m], and the subtree over
// index[lo:hi) is rooted at m = (lo+hi)/2. The layout is a pure function
// of (lo, hi) recursion, independent of build order, which is what lets
// BuildParallel construct disjoint subtrees concurrently and still produce
// a tree bit-identical to the sequential Build.
//
// The same argument makes the arrays independent of how a split finds
// its median. A split hands each child a point SET (everything ordering
// before, or after, the median under the strict (coordinate, index)
// order); the set fixes the child's median, and every position m is the
// median of exactly one subtree, so index and nodes come out
// element-for-element as if every range had been fully sorted. Splits
// therefore select (O(n) each, O(n log n) a build) instead of sorting.
type KDTree struct {
	pts   []geom.Vec
	index []int32   // permutation of original indices, tree order (< 2^31 points)
	nodes []kdNode  // nodes[m] describes the subtree whose median is index[m]
	box   []float64 // the points' bounding box, lows then highs (BuildBoxed)
	dim   int
}

// kdNode links a node to its children. Its splitting axis is its depth
// modulo the dimension, which a traversal counts as it descends.
type kdNode struct {
	left, right int32 // node ids (median positions), -1 for none
}

// Build constructs a kd-tree over pts. The tree keeps a reference to the
// point slice; callers must not mutate it afterwards.
func Build(pts []geom.Vec) *KDTree {
	t := &KDTree{}
	t.Reset(pts)
	return t
}

// BuildBoxed is Build that also records the points' bounding box, by
// which a Forest passes the tree over without reading it; build the
// trees that go into a forest here.
func BuildBoxed(pts []geom.Vec) *KDTree {
	t := Build(pts)
	t.box = make([]float64, 2*t.dim)
	fillBox(t.box, pts)
	return t
}

// Reset rebuilds the tree in place over a new point set, reusing the
// node and index storage from previous builds. This is the steady-state
// path for pooled arenas and the Dynamic index: after the first build of
// comparable size, rebuilding allocates nothing.
func (t *KDTree) Reset(pts []geom.Vec) {
	t.pts, t.box = pts, nil
	if len(pts) == 0 {
		t.index = t.index[:0]
		t.nodes = t.nodes[:0]
		t.dim = 0
		return
	}
	t.dim = len(pts[0])
	t.prepare(len(pts))
	t.buildRange(0, len(pts), 0)
}

// prepare sizes the index permutation and node storage for n points,
// reusing capacity.
func (t *KDTree) prepare(n int) {
	if cap(t.index) < n {
		t.index = make([]int32, n)
		t.nodes = make([]kdNode, n)
	}
	t.index = t.index[:n]
	t.nodes = t.nodes[:n]
	for i := range t.index {
		t.index[i] = int32(i)
	}
}

// buildRange arranges index[lo:hi) into kd order sequentially.
func (t *KDTree) buildRange(lo, hi, depth int) {
	for hi-lo > 0 {
		mid := t.split(lo, hi, depth)
		// Recurse into the smaller side, loop on the larger: O(log n)
		// stack depth regardless of balance.
		if mid-lo <= hi-mid-1 {
			t.buildRange(lo, mid, depth+1)
			lo = mid + 1
		} else {
			t.buildRange(mid+1, hi, depth+1)
			hi = mid
		}
		depth++
	}
}

// split moves the median of index[lo:hi) along the depth axis to the
// median position — a selection, not a sort: the order inside the two
// halves is left to their own splits — writes the median node, and
// returns its position. Child links are computable from the (lo, hi)
// bounds alone, so they are filled in here without visiting the children.
func (t *KDTree) split(lo, hi, depth int) int {
	axis := depth % t.dim
	mid := (lo + hi) / 2
	selectIndex(t.index[lo:hi], t.pts, axis, mid-lo)
	left, right := int32(-1), int32(-1)
	if lo < mid {
		left = int32((lo + mid) / 2)
	}
	if mid+1 < hi {
		right = int32((mid + 1 + hi) / 2)
	}
	t.nodes[mid] = kdNode{left: left, right: right}
	return mid
}

// root returns the root node id, -1 for an empty tree.
func (t *KDTree) root() int32 {
	if len(t.index) == 0 {
		return -1
	}
	return int32(len(t.index) / 2)
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// Bounds returns the box BuildBoxed recorded (read-only); ok=false for a
// tree built otherwise or over no points.
func (t *KDTree) Bounds() (box geom.AABB, ok bool) {
	if t.dim == 0 || len(t.box) == 0 {
		return geom.AABB{}, false
	}
	return geom.AABB{Lo: t.box[:t.dim:t.dim], Hi: t.box[t.dim:]}, true
}

// Points returns the point slice the tree was built over (read-only).
func (t *KDTree) Points() []geom.Vec { return t.pts }

// Nearest returns up to k nearest neighbours of q, closest first (ties by
// index), along with the number of distance evaluations performed (for
// work metering). It allocates its result and a transient scratch; hot
// paths should hold a QueryScratch and call NearestInto instead.
func (t *KDTree) Nearest(q geom.Vec, k int) ([]Result, int) {
	var sc QueryScratch
	return t.NearestInto(&sc, q, k, -1, nil)
}

// NearestInto appends up to k nearest neighbours of q to dst, closest
// first (ties broken by ascending index), and returns the extended slice
// plus the number of distance evaluations. skip, when >= 0, excludes that
// point index from the results (the query point itself in self-join
// connection queries). With a reused scratch and a reused dst, the query
// performs no allocations in steady state.
func (t *KDTree) NearestInto(sc *QueryScratch, q geom.Vec, k, skip int, dst []Result) ([]Result, int) {
	if k <= 0 || len(t.pts) == 0 {
		return dst, 0
	}
	sc.reset(k)
	evals := t.search(sc, q, skip, 0)
	return sc.drainSorted(dst), evals
}

// search runs the kd traversal, offering the tree's points — numbered
// from base, local index skip left out — to sc's bounded heap as it
// stands, unsorted, so that Dynamic's pending buffer and a Forest's
// other trees merge into the same heap before it is sorted once.
func (t *KDTree) search(sc *QueryScratch, q geom.Vec, skip, base int) int {
	sc.stack = sc.stack[:0]
	evals := 0
	node, axis := t.root(), 0
	for {
		// Descend toward q, evaluating each node point and deferring the
		// far child with its splitting-plane distance for later pruning.
		for node >= 0 {
			n := t.nodes[node]
			pi := int(t.index[node])
			d2 := q.Dist2(t.pts[pi])
			evals++
			if pi != skip {
				sc.offer(Result{Index: base + pi, Dist2: d2})
			}
			delta := q[axis] - t.pts[pi][axis]
			near, far := n.left, n.right
			if delta > 0 {
				near, far = n.right, n.left
			}
			if axis++; axis == t.dim {
				axis = 0
			}
			if far >= 0 {
				sc.pushVisit(far, axis, delta*delta)
			}
			node = near
		}
		// Resume at the best-deferred far subtree that can still improve
		// the heap. <= admits far-side points at exactly the current worst
		// distance, which the index tie-break may prefer — required for
		// exact agreement with the brute-force reference.
		node = -1
		for len(sc.stack) > 0 {
			f := sc.popVisit()
			if !sc.full() || f.dist2 <= sc.worst().Dist2 {
				node, axis = f.node, int(f.axis)
				break
			}
		}
		if node < 0 {
			return evals
		}
	}
}

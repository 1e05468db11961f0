package knn

import (
	"parmp/internal/geom"
)

// Default rebuild thresholds for Dynamic: a rebuild happens when more
// than defaultRebuildMin points are pending AND the pending buffer
// exceeds defaultRebuildFrac of the tree size.
const (
	defaultRebuildMin  = 32
	defaultRebuildFrac = 0.5
)

// Dynamic is a nearest-neighbour index for growing point sets: a kd-tree
// over the bulk of the points plus a linear-scanned pending buffer.
// Inserts are O(1) amortized; when the buffer outgrows a fraction of the
// tree the structure rebuilds (in place, reusing tree storage). This is
// the standard technique for incremental planners (RRT trees) whose point
// sets only ever grow.
type Dynamic struct {
	pts     []geom.Vec
	tree    KDTree
	treeLen int // how many of pts the tree covers

	// rebuildMin and rebuildFrac are the rebuild schedule: the tree is
	// rebuilt when more than rebuildMin points are pending and the
	// pending buffer exceeds rebuildFrac of the tree size. Lower
	// thresholds trade insert cost for query speed (shorter pending
	// scans).
	rebuildMin  int
	rebuildFrac float64
}

// NewDynamic returns an empty index with the default rebuild schedule.
func NewDynamic() *Dynamic {
	return &Dynamic{rebuildMin: defaultRebuildMin, rebuildFrac: defaultRebuildFrac}
}

// Len returns the number of indexed points.
func (d *Dynamic) Len() int { return len(d.pts) }

// Add inserts p and returns its index.
func (d *Dynamic) Add(p geom.Vec) int {
	d.pts = append(d.pts, p)
	pending := len(d.pts) - d.treeLen
	if pending > d.rebuildMin && float64(pending) > float64(d.treeLen)*d.rebuildFrac {
		d.rebuild()
	}
	return len(d.pts) - 1
}

func (d *Dynamic) rebuild() {
	d.tree.Reset(d.pts[:len(d.pts):len(d.pts)])
	d.treeLen = len(d.pts)
}

// Nearest returns up to k nearest neighbours of q, closest first (ties
// broken by ascending index so parity tests cannot flake on equal
// distances), along with the number of distance evaluations performed.
func (d *Dynamic) Nearest(q geom.Vec, k int) ([]Result, int) {
	var sc QueryScratch
	return d.NearestInto(&sc, q, k, nil)
}

// NearestInto is Nearest appending into dst via a reusable scratch:
// tree hits and the pending-buffer scan merge in the scratch's bounded
// heap, sorted once — allocation-free in steady state.
func (d *Dynamic) NearestInto(sc *QueryScratch, q geom.Vec, k int, dst []Result) ([]Result, int) {
	if k <= 0 || len(d.pts) == 0 {
		return dst, 0
	}
	sc.reset(k)
	evals := d.tree.search(sc, q, -1, 0)
	// Pending buffer: linear scan into the same heap.
	for i := d.treeLen; i < len(d.pts); i++ {
		sc.offer(Result{Index: i, Dist2: q.Dist2(d.pts[i])})
		evals++
	}
	return sc.drainSorted(dst), evals
}

package knn

import (
	"parmp/internal/geom"
)

// RadiusInto appends all points within radius of q to dst, closest first
// (ties by index), and returns the number of distance evaluations. The
// scratch's visit stack is reused and results sort in the appended dst
// segment, so with a reused dst it is allocation-free in steady state.
func (t *KDTree) RadiusInto(sc *QueryScratch, q geom.Vec, radius float64, dst []Result) ([]Result, int) {
	if len(t.pts) == 0 || radius < 0 {
		return dst, 0
	}
	base := len(dst)
	dst, evals := t.radiusAppend(sc, q, radius*radius, 0, dst)
	sortResults(dst[base:])
	return dst, evals
}

// radiusAppend appends, unsorted and numbered from base, the points
// within squared distance r2 of q, and returns the distance evaluations.
func (t *KDTree) radiusAppend(sc *QueryScratch, q geom.Vec, r2 float64, base int, dst []Result) ([]Result, int) {
	evals := 0
	sc.stack = sc.stack[:0]
	node, axis := t.root(), 0
	for {
		for node >= 0 {
			n := t.nodes[node]
			pi := int(t.index[node])
			d2 := q.Dist2(t.pts[pi])
			evals++
			if d2 <= r2 {
				dst = append(dst, Result{Index: base + pi, Dist2: d2})
			}
			delta := q[axis] - t.pts[pi][axis]
			near, far := n.left, n.right
			if delta > 0 {
				near, far = n.right, n.left
			}
			if axis++; axis == t.dim {
				axis = 0
			}
			if far >= 0 && delta*delta <= r2 {
				sc.pushVisit(far, axis, 0)
			}
			node = near
		}
		if len(sc.stack) == 0 {
			return dst, evals
		}
		f := sc.popVisit()
		node, axis = f.node, int(f.axis)
	}
}

// sortResults orders results ascending by (Dist2, Index) without
// allocating: insertion sort for short runs, heapsort above.
func sortResults(rs []Result) {
	if len(rs) <= 16 {
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && resultBefore(rs[j], rs[j-1]); j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
		return
	}
	// Max-heapify then pop: worst element (last under resultBefore) rises.
	after := func(i, j int) bool { return resultBefore(rs[j], rs[i]) }
	siftDown := func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			big := l
			if r := l + 1; r < n && after(r, l) {
				big = r
			}
			if !after(big, i) {
				return
			}
			rs[i], rs[big] = rs[big], rs[i]
			i = big
		}
	}
	for i := len(rs)/2 - 1; i >= 0; i-- {
		siftDown(i, len(rs))
	}
	for n := len(rs) - 1; n > 0; n-- {
		rs[0], rs[n] = rs[n], rs[0]
		siftDown(0, n)
	}
}

// BruteRadiusInto is the exhaustive scan for the points within radius of
// q — the reference for Radius, and what RRT* uses on its small
// per-region trees — appending into dst, so a reused dst makes it
// allocation-free in steady state.
func BruteRadiusInto(pts []geom.Vec, q geom.Vec, radius float64, dst []Result) []Result {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	base := len(dst)
	for i, p := range pts {
		if d2 := q.Dist2(p); d2 <= r2 {
			dst = append(dst, Result{Index: i, Dist2: d2})
		}
	}
	sortResults(dst[base:])
	return dst
}

package knn

import (
	"parmp/internal/geom"
)

// BruteNearest returns up to k nearest neighbours of q among pts by
// exhaustive scan, closest first (ties by index). It is the reference
// implementation the kd-tree is validated against, and the fallback for
// tiny point sets where tree construction is not worth it.
func BruteNearest(pts []geom.Vec, q geom.Vec, k int) []Result {
	var sc QueryScratch
	out, _ := BruteNearestInto(&sc, pts, q, k, -1, nil)
	return out
}

// BruteNearestInto appends up to k nearest neighbours of q to dst,
// closest first (ties by index), skipping point index skip when >= 0. It
// uses the scratch's bounded heap, so with reused scratch and dst the
// scan is allocation-free. The eval count (len(pts), minus the skip) is
// returned for work metering.
func BruteNearestInto(sc *QueryScratch, pts []geom.Vec, q geom.Vec, k, skip int, dst []Result) ([]Result, int) {
	if k <= 0 {
		return dst, 0
	}
	sc.reset(k)
	evals := 0
	for i, p := range pts {
		if i == skip {
			continue
		}
		sc.offer(Result{Index: i, Dist2: q.Dist2(p)})
		evals++
	}
	return sc.drainSorted(dst), evals
}

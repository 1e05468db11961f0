package knn

import "parmp/internal/geom"

// QueryScratch holds the reusable state of one in-flight kNN query: the
// bounded result heap and the deferred-subtree visit stack. One scratch
// per worker (see the planner arenas) makes steady-state queries
// allocation-free; the zero value is ready to use. A scratch must not be
// shared by concurrent queries.
type QueryScratch struct {
	k     int
	heap  []Result     // bounded max-heap ordered by (Dist2, Index), worst on top
	stack []visitFrame // far subtrees deferred during descent
}

type visitFrame struct {
	node  int32
	axis  int32   // the subtree root's splitting axis
	dist2 float64 // squared distance from q to the subtree's splitting plane
}

func (sc *QueryScratch) reset(k int) {
	sc.k = k
	sc.heap = sc.heap[:0]
	sc.stack = sc.stack[:0]
}

func (sc *QueryScratch) full() bool    { return len(sc.heap) >= sc.k }
func (sc *QueryScratch) worst() Result { return sc.heap[0] }

// offer inserts r when the heap is not full or r beats the current worst
// under the (Dist2, Index) order.
func (sc *QueryScratch) offer(r Result) {
	if len(sc.heap) < sc.k {
		sc.heap = append(sc.heap, r)
		sc.siftUp(len(sc.heap) - 1)
		return
	}
	if resultBefore(r, sc.heap[0]) {
		sc.heap[0] = r
		sc.siftDown(0, len(sc.heap))
	}
}

// heapAfter orders the max-heap: the element that sorts LATER under
// resultBefore is closer to the top.
func (sc *QueryScratch) heapAfter(i, j int) bool { return resultBefore(sc.heap[j], sc.heap[i]) }

func (sc *QueryScratch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !sc.heapAfter(i, parent) {
			return
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

func (sc *QueryScratch) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && sc.heapAfter(r, l) {
			big = r
		}
		if !sc.heapAfter(big, i) {
			return
		}
		sc.heap[i], sc.heap[big] = sc.heap[big], sc.heap[i]
		i = big
	}
}

// drainSorted heap-sorts the collected results ascending by
// (Dist2, Index) and appends them to dst, leaving the scratch reusable.
func (sc *QueryScratch) drainSorted(dst []Result) []Result {
	for n := len(sc.heap) - 1; n > 0; n-- {
		sc.heap[0], sc.heap[n] = sc.heap[n], sc.heap[0]
		sc.siftDown(0, n)
	}
	return append(dst, sc.heap...)
}

func (sc *QueryScratch) pushVisit(node int32, axis int, dist2 float64) {
	sc.stack = append(sc.stack, visitFrame{node: node, axis: int32(axis), dist2: dist2})
}

func (sc *QueryScratch) popVisit() visitFrame {
	f := sc.stack[len(sc.stack)-1]
	sc.stack = sc.stack[:len(sc.stack)-1]
	return f
}

// selectIndex rearranges idx so that position k holds the element of
// rank k under (pts[i][axis], i), everything before it orders before it
// and everything after it after — a quickselect with median-of-three
// pivots, finished by an insertion sort below a cutoff. It loops on the
// side holding k and never recurses. The explicit index tie-break makes
// the order strict, so the selected element is a pure function of the
// point set, independent of the order idx arrives in.
func selectIndex(idx []int32, pts []geom.Vec, axis, k int) {
	for len(idx) > 12 {
		pivot := medianOfThree(idx, pts, axis)
		p := partitionIndex(idx, pts, axis, pivot)
		switch {
		case k == p:
			return
		case k < p:
			idx = idx[:p]
		default:
			idx = idx[p+1:]
			k -= p + 1
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && axisBefore(pts, axis, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// axisBefore orders point indices by (coordinate, index).
func axisBefore(pts []geom.Vec, axis int, a, b int32) bool {
	ca, cb := pts[a][axis], pts[b][axis]
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// medianOfThree moves the median of idx's first/middle/last elements to
// position 0 (the pivot slot) and returns its value.
func medianOfThree(idx []int32, pts []geom.Vec, axis int) int32 {
	lo, mid, hi := 0, len(idx)/2, len(idx)-1
	if axisBefore(pts, axis, idx[mid], idx[lo]) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if axisBefore(pts, axis, idx[hi], idx[mid]) {
		idx[hi], idx[mid] = idx[mid], idx[hi]
		if axisBefore(pts, axis, idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
	}
	idx[0], idx[mid] = idx[mid], idx[0]
	return idx[0]
}

// partitionIndex partitions idx around the pivot at position 0 and
// returns the pivot's final position. The pivot's key is read once; an
// element orders before it exactly as axisBefore says.
func partitionIndex(idx []int32, pts []geom.Vec, axis int, pivot int32) int {
	pc := pts[pivot][axis]
	store := 1
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		if c := pts[v][axis]; c < pc || (c == pc && v < pivot) {
			idx[i], idx[store] = idx[store], v
			store++
		}
	}
	idx[0], idx[store-1] = idx[store-1], idx[0]
	return store - 1
}

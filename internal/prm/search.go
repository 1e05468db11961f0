package prm

import (
	"math"
	"sync"

	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// BatchScratch is the reusable state of one in-flight Index.Query or
// Index.QueryBatch: the kd and collision scratch the attach step runs
// through, the attachment buffers, and the search state (dist/prev
// arrays sized to the roadmap, a typed binary heap). With a warm scratch
// a query allocates only what it returns.
//
// Callers normally pass a nil *BatchScratch and the index borrows one
// from a package-level pool for the duration of the call; a caller that
// wants to own its scratch (one per serving worker) may pass its own. The
// zero value is ready to use; it grows to the largest roadmap it has
// served and works for any smaller one. A scratch must not be shared by
// concurrent calls.
type BatchScratch struct {
	// Search state, indexed by roadmap node. dist[v] and prev[v] mean
	// something only while seen[v] == gen, and v is an exit the search
	// has not settled yet only while mark[v] == gen, so starting a search
	// is one increment of gen, not a sweep over the arrays.
	gen  uint32
	seen []uint32
	mark []uint32
	dist []float64
	prev []int32
	heap []heapEntry

	// Attach state: kd hits of the two endpoints (start's, then goal's),
	// the feasible attachments found among them, and the distinct
	// component labels of whichever side is being tested.
	knn    knn.QueryScratch
	cs     cspace.Scratch
	bt     cspace.Batch
	hits   []knn.Result
	atts   []attachment
	labels []int
}

var scratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// heapEntry is one frontier vertex: g is the cost of the route that
// pushed it, f = g + h what the heap orders by.
type heapEntry struct {
	f, g float64
	node int32
}

// before orders the frontier: cheapest f first, the deeper route first
// among equal f (it is nearer its target), then by node so the pop order
// is a pure function of the query.
func (a heapEntry) before(b heapEntry) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.g != b.g {
		return a.g > b.g
	}
	return a.node < b.node
}

func (sc *BatchScratch) push(e heapEntry) {
	sc.heap = append(sc.heap, e)
	h := sc.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (sc *BatchScratch) pop() heapEntry {
	h := sc.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	sc.heap = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			small = r
		}
		if !h[small].before(h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// begin starts a new search over a roadmap of n nodes: the arrays are
// regrown if this roadmap is the largest the scratch has met, and every
// stamp of earlier searches goes stale at once. The arrays are swept only
// when the 32-bit generation wraps around.
func (sc *BatchScratch) begin(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
		sc.mark = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.prev = make([]int32, n)
	}
	sc.gen++
	if sc.gen == 0 {
		clear(sc.seen)
		clear(sc.mark)
		sc.gen = 1
	}
	sc.heap = sc.heap[:0]
}

// seed makes node a source reached at cost g, with h its heuristic.
func (sc *BatchScratch) seed(node int32, g, h float64) {
	if sc.seen[node] == sc.gen && g >= sc.dist[node] {
		return
	}
	sc.seen[node] = sc.gen
	sc.dist[node] = g
	sc.prev[node] = -1
	sc.push(heapEntry{f: g + h, g: g, node: node})
}

// heuristic is h(v): the straight-line s.Distance from v to goal.
func (ix *Index) heuristic(s *cspace.Space, v int32, goal cspace.Config) float64 {
	return s.Distance(ix.pts[v], goal)
}

// search is the package's one shortest-path loop. From the sources
// seeded since begin it settles roadmap vertices in ascending f = g + h
// until every exit is settled or no unsettled vertex can still beat the
// best exit, leaving final distances and prev links (toward the sources)
// for every settled vertex in sc.
//
// h is heuristic toward goal. Every roadmap edge weighs s.Distance
// between its ends and an exit's cost is s.Distance(exit, goal), so by
// the triangle inequality h never overestimates the cost of leaving
// through any exit and satisfies h(u) <= w(u,v) + h(v): f values pop in
// ascending order and a vertex's first current pop carries its final
// distance.
//
// exits are the roadmap nodes the goal attaches to, with their costs of
// leaving the roadmap; the node of the cheapest dist + cost is returned
// (-1 when no exit was reached).
func (ix *Index) search(sc *BatchScratch, s *cspace.Space, goal cspace.Config, exits []attachment) int32 {
	gen := sc.gen
	g := ix.m.G
	remaining := 0 // exits not settled yet
	for _, x := range exits {
		if sc.mark[x.node] != gen {
			sc.mark[x.node] = gen
			remaining++
		}
	}
	bestNode, best := int32(-1), math.Inf(1)
	for len(sc.heap) > 0 && remaining > 0 {
		it := sc.pop()
		if it.f >= best {
			break // every remaining route is at least this long
		}
		v := it.node
		if it.g > sc.dist[v] {
			continue // superseded by a cheaper route to v
		}
		if sc.mark[v] == gen {
			sc.mark[v] = 0
			remaining--
			for _, x := range exits {
				if int32(x.node) == v && it.g+x.cost < best {
					bestNode, best = v, it.g+x.cost
				}
			}
		}
		for _, e := range g.Neighbors(graph.ID(v)) {
			u, nd := int32(e.To), it.g+e.Weight
			if sc.seen[u] == gen && nd >= sc.dist[u] {
				continue
			}
			sc.seen[u] = gen
			sc.dist[u] = nd
			sc.prev[u] = v
			sc.push(heapEntry{f: nd + ix.heuristic(s, u, goal), g: nd, node: u})
		}
	}
	return bestNode
}

// path returns start, the roadmap vertices on the prev chain from exit
// back to its source — laid out reversed, since the chain reads goal
// side first — and goal, as one []Config over one []float64 slab.
func (ix *Index) path(sc *BatchScratch, exit int32, start, goal cspace.Config) []cspace.Config {
	hops, floats := 0, len(start)+len(goal)
	for v := exit; v >= 0; v = sc.prev[v] {
		hops++
		floats += len(ix.pts[v])
	}
	path := make([]cspace.Config, hops+2)
	slab := make([]float64, 0, floats)
	put := func(i int, q cspace.Config) {
		lo := len(slab)
		slab = append(slab, q...)
		path[i] = slab[lo:len(slab):len(slab)]
	}
	put(0, start)
	i := hops
	for v := exit; v >= 0; v = sc.prev[v] {
		put(i, ix.pts[v])
		i--
	}
	put(hops+1, goal)
	return path
}

// attach appends to sc.atts every candidate among hits that the local
// planner reaches from q, and returns the appended attachments. Only
// candidates whose component label is in far — the labels met on the
// query's other side — are tried: an attachment in a component the other
// side never touches cannot be on any path, so skipping its local plan
// changes no answer.
func (ix *Index) attach(sc *BatchScratch, s *cspace.Space, q cspace.Config, hits []knn.Result, far []int, c *cspace.Counters) []attachment {
	lo := len(sc.atts)
	for _, h := range hits {
		if hasLabel(far, ix.labels[h.Index]) && s.LocalPlanBatch(q, ix.pts[h.Index], &sc.bt, c) {
			sc.atts = append(sc.atts, attachment{node: h.Index, cost: s.Distance(q, ix.pts[h.Index])})
		}
	}
	return sc.atts[lo:]
}

// Component label sets are short slices of distinct labels: a handful of
// candidates almost always fall in one or two components, so a scan
// beats any keyed structure.

func hasLabel(set []int, l int) bool {
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

func addLabel(set []int, l int) []int {
	if hasLabel(set, l) {
		return set
	}
	return append(set, l)
}

func (ix *Index) hitLabels(dst []int, hits []knn.Result) []int {
	for _, h := range hits {
		dst = addLabel(dst, ix.labels[h.Index])
	}
	return dst
}

func (ix *Index) attLabels(dst []int, atts []attachment) []int {
	for _, a := range atts {
		dst = addLabel(dst, ix.labels[a.node])
	}
	return dst
}

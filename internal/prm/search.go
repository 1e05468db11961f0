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
// through, the attachment buffers, and the search state (one record per
// roadmap node, an indexed 4-ary heap). With a warm scratch a query
// allocates only what it returns.
//
// Callers normally pass a nil *BatchScratch and the index borrows one
// from a package-level pool for the duration of the call; a caller that
// wants to own its scratch (one per serving worker) may pass its own. The
// zero value is ready to use; it grows to the largest roadmap it has
// served and works for any smaller one. A scratch must not be shared by
// concurrent calls.
type BatchScratch struct {
	// Search state: a record per roadmap node, whose stamps make it mean
	// something only while they equal gen, so starting a search is one
	// increment of gen, not a sweep; and the frontier, at most one entry
	// per node.
	gen   uint32
	nodes []nodeState
	heap  []heapEntry

	// Attach state: kd hits of the two endpoints (start's, then goal's),
	// the feasible attachments found among them, and the distinct
	// component labels of whichever side is being tested.
	knn    knn.QueryScratch
	cs     cspace.Scratch
	bt     cspace.Batch
	hits   []knn.Result
	atts   []attachment
	labels []int32
}

var scratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// nodeState is one roadmap node's search record, 32 bytes. dist, h (the
// node's heuristic), prev (toward the sources, -1 at a source) and pos
// (its frontier slot, -1 when it has none) mean something only while
// seen == gen; the node is an exit not settled yet only while mark == gen.
type nodeState struct {
	dist, h    float64
	prev, pos  int32
	seen, mark uint32
}

// heapEntry is one frontier vertex: g is the cost of its best route so
// far, f = g + h what the heap orders by.
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

// fix files e as its node's one frontier entry: appended when the node
// has none, else over the dearer entry it replaces. A smaller g never
// raises f, so the entry rises, unless f ties: then the smaller g orders
// it later and it sinks.
func (sc *BatchScratch) fix(e heapEntry) {
	i := int(sc.nodes[e.node].pos)
	switch {
	case i < 0:
		sc.heap = append(sc.heap, e)
		sc.up(len(sc.heap)-1, e)
	case e.before(sc.heap[i]):
		sc.up(i, e)
	default:
		sc.down(i, e)
	}
}

func (sc *BatchScratch) pop() heapEntry {
	h := sc.heap
	top, last := h[0], h[len(h)-1]
	sc.nodes[top.node].pos = -1
	sc.heap = h[:len(h)-1]
	if len(sc.heap) > 0 {
		sc.down(0, last)
	}
	return top
}

// up and down move e from the hole at slot i toward the root or the
// leaves, shifting the entries they pass, and record every move in pos.
func (sc *BatchScratch) up(i int, e heapEntry) {
	h, nodes := sc.heap, sc.nodes
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		nodes[h[i].node].pos = int32(i)
		i = p
	}
	h[i] = e
	nodes[e.node].pos = int32(i)
}

func (sc *BatchScratch) down(i int, e heapEntry) {
	h, nodes := sc.heap, sc.nodes
	for c := 4*i + 1; c < len(h); c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, len(h)); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		nodes[h[i].node].pos = int32(i)
		i = m
	}
	h[i] = e
	nodes[e.node].pos = int32(i)
}

// begin starts a new search over a roadmap of n nodes: the records are
// regrown if this roadmap is the largest the scratch has met, and every
// stamp of earlier searches goes stale at once. The records are swept
// only when the 32-bit generation wraps around.
func (sc *BatchScratch) begin(n int) {
	if len(sc.nodes) < n {
		sc.nodes = make([]nodeState, n)
	}
	sc.gen++
	if sc.gen == 0 {
		clear(sc.nodes)
		sc.gen = 1
	}
	sc.heap = sc.heap[:0]
}

// reach offers node u a route of cost g whose last hop leaves prev (-1
// for a source). If u has no route yet this search, or a dearer one, the
// route becomes u's and u's frontier entry is filed under it. h(u), the
// straight-line s.Distance to goal, is computed when u is first reached.
func (ix *Index) reach(sc *BatchScratch, s *cspace.Space, goal cspace.Config, u int32, g float64, prev int32) {
	n := &sc.nodes[u]
	if n.seen != sc.gen {
		n.seen, n.h, n.pos = sc.gen, s.Distance(ix.verts[u].Q, goal), -1
	} else if g >= n.dist {
		return
	}
	n.dist, n.prev = g, prev
	sc.fix(heapEntry{f: g + n.h, g: g, node: u})
}

// search is the package's one shortest-path loop. From the starts it
// settles roadmap vertices in ascending f = g + h until every exit is
// settled or no unsettled vertex can still beat the best exit, leaving
// final distances and prev links (toward the sources) for every settled
// vertex in sc.
//
// h is heuristic toward goal. Every roadmap edge weighs s.Distance
// between its ends and an exit's cost is s.Distance(exit, goal), so by
// the triangle inequality h never overestimates the cost of leaving
// through any exit and satisfies h(u) <= w(u,v) + h(v): f values pop in
// ascending order and a vertex's first pop carries its final distance.
// Should rounding ever lower a settled vertex's distance, reach files it
// again and it is settled again.
//
// starts and exits are the roadmap nodes the start and the goal attach
// to, with their costs of entering and leaving the roadmap; the exit of
// the cheapest dist + cost is returned (-1 when no exit was reached).
func (ix *Index) search(sc *BatchScratch, s *cspace.Space, goal cspace.Config, starts, exits []attachment) int32 {
	sc.begin(ix.NumNodes())
	for _, a := range starts {
		ix.reach(sc, s, goal, int32(a.node), a.cost, -1)
	}
	gen, nodes, g := sc.gen, sc.nodes, ix.m.G
	remaining := 0 // exits not settled yet
	for _, x := range exits {
		if nodes[x.node].mark != gen {
			nodes[x.node].mark = gen
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
		if nodes[v].mark == gen {
			nodes[v].mark = 0
			remaining--
			for _, x := range exits {
				if int32(x.node) == v && it.g+x.cost < best {
					bestNode, best = v, it.g+x.cost
				}
			}
		}
		to, w := g.Neighbors(graph.ID(v))
		w = w[:len(to)]
		for i, u := range to {
			// The usual edge, to a vertex already reached as cheaply, is
			// turned away here without a call.
			nd := it.g + w[i]
			if nodes[u].seen == gen && nd >= nodes[u].dist {
				continue
			}
			ix.reach(sc, s, goal, int32(u), nd, v)
		}
	}
	return bestNode
}

// path returns start, the roadmap vertices on the prev chain from exit
// back to its source — laid out reversed, since the chain reads goal
// side first — and goal, as one []Config over one []float64 slab.
func (ix *Index) path(sc *BatchScratch, exit int32, start, goal cspace.Config) []cspace.Config {
	hops, floats := 0, len(start)+len(goal)
	for v := exit; v >= 0; v = sc.nodes[v].prev {
		hops++
		floats += len(ix.verts[v].Q)
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
	for v := exit; v >= 0; v = sc.nodes[v].prev {
		put(i, ix.verts[v].Q)
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
func (ix *Index) attach(sc *BatchScratch, s *cspace.Space, q cspace.Config, hits []knn.Result, far []int32, c *cspace.Counters) []attachment {
	lo := len(sc.atts)
	for _, h := range hits {
		if hasLabel(far, ix.labels[h.Index]) && s.LocalPlanBatch(q, ix.verts[h.Index].Q, &sc.bt, c) {
			sc.atts = append(sc.atts, attachment{node: h.Index, cost: s.Distance(q, ix.verts[h.Index].Q)})
		}
	}
	return sc.atts[lo:]
}

// Component label sets are short slices of distinct labels: a handful of
// candidates almost always fall in one or two components, so a scan
// beats any keyed structure.

func hasLabel(set []int32, l int32) bool {
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

func addLabel(set []int32, l int32) []int32 {
	if hasLabel(set, l) {
		return set
	}
	return append(set, l)
}

func (ix *Index) hitLabels(dst []int32, hits []knn.Result) []int32 {
	for _, h := range hits {
		dst = addLabel(dst, ix.labels[h.Index])
	}
	return dst
}

func (ix *Index) attLabels(dst []int32, atts []attachment) []int32 {
	for _, a := range atts {
		dst = addLabel(dst, ix.labels[a.node])
	}
	return dst
}

package prm

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// Query connects start and goal to the roadmap (each to its k nearest
// nodes) and extracts a shortest path. It returns the configuration
// sequence including start and goal, and ok=false if no path exists.
// The roadmap is left unchanged on return, but it IS temporarily
// mutated (transient attachment vertices are added and removed), so
// concurrent callers must serialize.
//
// Query is the reference implementation Index.Query is parity-tested
// against (index_test.go): it re-gathers every roadmap point and
// rebuilds the kd-tree per call and searches the graph itself, sharing
// no code with the index. Production callers build an Index once and use
// Index.Query, which is non-mutating, concurrency-safe and amortizes the
// build cost across calls.
func Query(s *cspace.Space, m *Roadmap, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(start, c) || !s.Valid(goal, c) {
		return nil, false
	}
	pts := make([]geom.Vec, m.NumNodes())
	for i := 0; i < m.NumNodes(); i++ {
		pts[i] = m.G.Vertex(graph.ID(i)).Q
	}
	// Full-roadmap trees are the largest built anywhere; the parallel
	// build produces a bit-identical tree faster for big maps.
	tree := knn.BuildParallel(pts, 0)

	attach := func(q cspace.Config) (graph.ID, bool) {
		id := m.G.AddVertex(Node{Q: q, Region: -1})
		hits, evals := tree.Nearest(q, k)
		if c != nil {
			c.KNNQueries++
			c.KNNEvals += int64(evals)
		}
		connected := false
		for _, h := range hits {
			if s.LocalPlan(q, pts[h.Index], c) {
				m.G.AddEdge(id, graph.ID(h.Index), s.Distance(q, pts[h.Index]))
				connected = true
			}
		}
		return id, connected
	}

	sid, okS := attach(start)
	gid, okG := attach(goal)
	// Remove the transient vertices before returning (goal first: it was
	// added last).
	defer func() {
		m.G.RemoveLastVertex()
		m.G.RemoveLastVertex()
	}()
	if !okS || !okG {
		return nil, false
	}
	ids, _, ok := m.G.ShortestPath(sid, gid)
	if !ok {
		return nil, false
	}
	path := make([]cspace.Config, len(ids))
	for i, id := range ids {
		path[i] = m.G.Vertex(id).Q.Clone()
	}
	return path, true
}

// lazyHeap is the frontier search kept before the indexed heap: a binary
// heap that takes one entry per improving relaxation, so a vertex can sit
// in it several times, every entry but the cheapest superseded.
type lazyHeap []heapEntry

// lazyBefore is the frontier order as the lazy heap had it — f ascending,
// g descending, node ascending — written out again here so that the
// oracle does not share heapEntry.before with what it checks.
func lazyBefore(a, b heapEntry) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.g != b.g {
		return a.g > b.g
	}
	return a.node < b.node
}

func (hp *lazyHeap) push(e heapEntry) {
	*hp = append(*hp, e)
	h := *hp
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lazyBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (hp *lazyHeap) pop() heapEntry {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*hp = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && lazyBefore(h[r], h[l]) {
			small = r
		}
		if !lazyBefore(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// lazySearch is Index.search as it stood with the lazy heap: fresh
// per-node arrays, h computed on every push, and a popped entry whose g
// exceeds its vertex's distance skipped as stale. It is the oracle
// TestSearchMatchesLazyHeap holds search to; it returns the exit and the
// prev links toward the sources.
func lazySearch(ix *Index, s *cspace.Space, goal cspace.Config, starts, exits []attachment) (int32, []int32) {
	n := ix.NumNodes()
	seen, mark := make([]bool, n), make([]bool, n)
	dist, prev := make([]float64, n), make([]int32, n)
	var heap lazyHeap
	for _, a := range starts {
		node := int32(a.node)
		if seen[node] && a.cost >= dist[node] {
			continue
		}
		seen[node], dist[node], prev[node] = true, a.cost, -1
		heap.push(heapEntry{f: a.cost + s.Distance(ix.verts[node].Q, goal), g: a.cost, node: node})
	}
	g := ix.m.G
	remaining := 0
	for _, x := range exits {
		if !mark[x.node] {
			mark[x.node] = true
			remaining++
		}
	}
	bestNode, best := int32(-1), math.Inf(1)
	for len(heap) > 0 && remaining > 0 {
		it := heap.pop()
		if it.f >= best {
			break
		}
		v := it.node
		if it.g > dist[v] {
			continue // superseded by a cheaper route to v
		}
		if mark[v] {
			mark[v] = false
			remaining--
			for _, x := range exits {
				if int32(x.node) == v && it.g+x.cost < best {
					bestNode, best = v, it.g+x.cost
				}
			}
		}
		for _, e := range g.Neighbors(graph.ID(v)) {
			u, nd := int32(e.To), it.g+e.Weight
			if seen[u] && nd >= dist[u] {
				continue
			}
			seen[u], dist[u], prev[u] = true, nd, v
			heap.push(heapEntry{f: nd + s.Distance(ix.verts[u].Q, goal), g: nd, node: u})
		}
	}
	return bestNode, prev
}

package prm

import (
	"math"
	"slices"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// Query connects start and goal to the roadmap (each to its k nearest
// nodes) and extracts a shortest path. It returns the configuration
// sequence including start and goal, and ok=false if no path exists.
// The roadmap is only read: the search runs on a graph of its own, the
// roadmap's vertices plus start and goal, built from the roadmap's edges
// as one span followed by the start's and the goal's attachment spans,
// so each attachment lands last in its node's row.
//
// Query is the reference implementation Index.Query is parity-tested
// against (index_test.go): it re-gathers every roadmap point and
// rebuilds the kd-tree per call and searches the graph itself, sharing
// no code with the index. Production callers build an Index once and use
// Index.Query, which amortizes the build cost across calls.
func Query(s *cspace.Space, m *Roadmap, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(start, c) || !s.Valid(goal, c) {
		return nil, false
	}
	n := m.NumNodes()
	pts := make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		pts[i] = m.G.Vertex(graph.ID(i)).Q
	}
	// Full-roadmap trees are the largest built anywhere; the parallel
	// build produces a bit-identical tree faster for big maps.
	tree := knn.BuildParallel(pts, 0)

	// attach is the span joining vertex id, at q, to every one of its k
	// nearest roadmap nodes the local planner reaches.
	attach := func(id int, q cspace.Config) graph.EdgeSpan {
		sp := graph.EdgeSpan{BaseA: graph.ID(id)}
		hits, evals := tree.Nearest(q, k)
		if c != nil {
			c.KNNQueries++
			c.KNNEvals += int64(evals)
		}
		for _, h := range hits {
			if s.LocalPlan(q, pts[h.Index], c) {
				sp.Ends = append(sp.Ends, [2]int{0, h.Index})
				sp.Weights = append(sp.Weights, s.Distance(q, pts[h.Index]))
			}
		}
		return sp
	}
	spanS, spanG := attach(n, start), attach(n+1, goal)
	if len(spanS.Ends) == 0 || len(spanG.Ends) == 0 {
		return nil, false
	}
	var roadmap graph.EdgeSpan
	m.G.ForEachEdge(func(a, b graph.ID, w float64) {
		roadmap.Ends = append(roadmap.Ends, [2]int{int(a), int(b)})
		roadmap.Weights = append(roadmap.Weights, w)
	})
	verts := append(slices.Clone(m.G.Vertices()), Node{Q: start, Region: -1}, Node{Q: goal, Region: -1})
	g := graph.FromSpans(verts, []graph.EdgeSpan{roadmap, spanS, spanG})
	ids, _, ok := g.ShortestPath(graph.ID(n), graph.ID(n+1))
	if !ok {
		return nil, false
	}
	path := make([]cspace.Config, len(ids))
	for i, id := range ids {
		path[i] = g.Vertex(id).Q.Clone()
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
		to, w := g.Neighbors(graph.ID(v))
		for i, u := range to {
			nd := it.g + w[i]
			if seen[u] && nd >= dist[u] {
				continue
			}
			seen[u], dist[u], prev[u] = true, nd, v
			heap.push(heapEntry{f: nd + s.Distance(ix.verts[u].Q, goal), g: nd, node: int32(u)})
		}
	}
	return bestNode, prev
}

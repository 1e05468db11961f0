package prm

import (
	"container/heap"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// Index is a prebuilt query accelerator over a frozen roadmap: the full
// kd-tree, the gathered point slice and the connected-component labels
// are computed once at build time, so answering a query costs two kNN
// lookups plus a shortest-path search instead of re-gathering every
// roadmap point and rebuilding the tree per call (what the reference
// Query does). An Index never mutates its roadmap, which is what makes a
// published engine snapshot safe for concurrent readers.
type Index struct {
	m      *Roadmap
	pts    []geom.Vec
	tree   *knn.KDTree
	labels []int
	comps  int
}

// BuildIndex gathers m's configurations, builds the kd-tree (in
// parallel for large maps) and labels connected components. The index
// keeps references into m; the roadmap must not be mutated afterwards.
func BuildIndex(m *Roadmap) *Index {
	pts := make([]geom.Vec, m.NumNodes())
	for i := range pts {
		pts[i] = m.G.Vertex(graph.ID(i)).Q
	}
	labels, comps := m.G.ConnectedComponents()
	return &Index{
		m:      m,
		pts:    pts,
		tree:   knn.BuildParallel(pts, 0),
		labels: labels,
		comps:  comps,
	}
}

// Roadmap returns the indexed roadmap (read-only by contract).
func (ix *Index) Roadmap() *Roadmap { return ix.m }

// NumNodes returns the number of indexed roadmap nodes.
func (ix *Index) NumNodes() int { return len(ix.pts) }

// Components returns the number of connected components.
func (ix *Index) Components() int { return ix.comps }

// Label returns the component label of node i.
func (ix *Index) Label(i int) int { return ix.labels[i] }

// attachment is a feasible roadmap entry/exit point for a query
// endpoint: roadmap node plus the metric cost of the connecting local
// path.
type attachment struct {
	node int
	cost float64
}

// attach finds the k nearest roadmap nodes to q that the local planner
// can reach, without touching the roadmap.
func (ix *Index) attach(s *cspace.Space, q cspace.Config, k int, c *cspace.Counters) []attachment {
	hits, evals := ix.tree.Nearest(q, k)
	if c != nil {
		c.KNNQueries++
		c.KNNEvals += int64(evals)
	}
	var out []attachment
	for _, h := range hits {
		if s.LocalPlan(q, ix.pts[h.Index], c) {
			out = append(out, attachment{node: h.Index, cost: s.Distance(q, ix.pts[h.Index])})
		}
	}
	return out
}

// Query answers a motion-planning query against the frozen roadmap
// without mutating it: start and goal each attach to their k nearest
// reachable nodes, and a multi-source Dijkstra over the roadmap finds
// the cheapest start-attachment → goal-attachment path. The returned
// path includes start and goal; ok is false when no connection exists.
// Success semantics match the reference Query exactly: the query succeeds
// iff some start attachment and some goal attachment share a connected
// component. Safe for concurrent use.
func (ix *Index) Query(s *cspace.Space, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(start, c) || !s.Valid(goal, c) {
		return nil, false
	}
	if len(ix.pts) == 0 {
		return nil, false
	}
	starts := ix.attach(s, start, k, c)
	goals := ix.attach(s, goal, k, c)
	if len(starts) == 0 || len(goals) == 0 {
		return nil, false
	}
	// Component pre-check: cheap reject for disconnected queries, and the
	// exact success criterion of the reference Query.
	reachable := false
	for _, sa := range starts {
		for _, ga := range goals {
			if ix.labels[sa.node] == ix.labels[ga.node] {
				reachable = true
			}
		}
	}
	if !reachable {
		return nil, false
	}

	// Exit costs: cheapest goal attachment per roadmap node.
	exit := make(map[int]float64, len(goals))
	for _, ga := range goals {
		if w, ok := exit[ga.node]; !ok || ga.cost < w {
			exit[ga.node] = ga.cost
		}
	}

	// Multi-source Dijkstra seeded with every start attachment.
	dist := make(map[int]float64, 64)
	prev := make(map[int]int, 64)
	q := &attachPQ{}
	for _, sa := range starts {
		if d, ok := dist[sa.node]; !ok || sa.cost < d {
			dist[sa.node] = sa.cost
			prev[sa.node] = -1
			heap.Push(q, pqEntry{node: sa.node, dist: sa.cost})
		}
	}
	bestTotal := -1.0
	bestExit := -1
	done := make(map[int]bool, 64)
	for q.Len() > 0 {
		it := heap.Pop(q).(pqEntry)
		if bestTotal >= 0 && it.dist >= bestTotal {
			break // every remaining route is at least this long
		}
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if w, ok := exit[it.node]; ok {
			if total := it.dist + w; bestTotal < 0 || total < bestTotal {
				bestTotal = total
				bestExit = it.node
			}
		}
		for _, e := range ix.m.G.Neighbors(graph.ID(it.node)) {
			nd := it.dist + e.Weight
			if d, ok := dist[int(e.To)]; !ok || nd < d {
				dist[int(e.To)] = nd
				prev[int(e.To)] = it.node
				heap.Push(q, pqEntry{node: int(e.To), dist: nd})
			}
		}
	}
	if bestExit < 0 {
		// Unreachable despite the component pre-check can't happen (labels
		// come from the same graph), but guard anyway.
		return nil, false
	}

	// Reconstruct: start, attachment chain, goal.
	var rev []int
	for cur := bestExit; cur != -1; cur = prev[cur] {
		rev = append(rev, cur)
	}
	path := make([]cspace.Config, 0, len(rev)+2)
	path = append(path, start.Clone())
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, ix.pts[rev[i]].Clone())
	}
	path = append(path, goal.Clone())
	return path, true
}

// pqEntry is a priority-queue entry for the index's Dijkstra.
type pqEntry struct {
	node int
	dist float64
}

type attachPQ []pqEntry

func (q attachPQ) Len() int           { return len(q) }
func (q attachPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q attachPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *attachPQ) Push(x any)        { *q = append(*q, x.(pqEntry)) }
func (q *attachPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

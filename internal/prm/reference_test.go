package prm

import (
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

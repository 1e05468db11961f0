package prm

import (
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
)

// Index is a prebuilt query accelerator over a frozen roadmap: a kd
// forest and the connected-component labels, so a query costs two kNN
// lookups plus a shortest-path search instead of re-gathering every
// point and rebuilding the tree per call (the reference Query). An Index
// never mutates its roadmap, which is what makes a published engine
// snapshot safe for concurrent readers.
type Index struct {
	m      *Roadmap
	verts  []Node // m's vertices, which hold the points
	forest knn.Forest
	labels []int32
	comps  int
	single [1]*knn.KDTree // the forest of a roadmap without region trees
}

// BuildIndex labels m's connected components and assembles its kd
// forest: m's region trees when it carries them (see WithRegionTrees),
// in O(regions), and otherwise one tree built over all of m (in
// parallel for large maps). The index
// keeps references into m; the roadmap must not be mutated afterwards.
func BuildIndex(m *Roadmap) *Index {
	labels, comps := m.G.ConnectedComponents()
	return IndexFromParts(m, labels, comps)
}

// IndexFromParts builds a query index over m from precomputed component
// labels, assembling the kd forest — the part a from-scratch build and a
// repair (whose scoped relabel supplies the labels) share.
func IndexFromParts(m *Roadmap, labels []int32, comps int) *Index {
	ix := &Index{m: m, verts: m.G.Vertices(), labels: labels, comps: comps}
	if m.regionTrees() {
		ix.forest = knn.NewForest(m.trees)
		return ix
	}
	pts := make([]geom.Vec, m.NumNodes())
	for i := range pts {
		pts[i] = ix.verts[i].Q
	}
	ix.single[0] = knn.BuildParallel(pts, 0)
	ix.forest = knn.NewForest(ix.single[:])
	return ix
}

// Roadmap returns the indexed roadmap (read-only by contract).
func (ix *Index) Roadmap() *Roadmap { return ix.m }

// NumNodes returns the number of indexed roadmap nodes.
func (ix *Index) NumNodes() int { return ix.m.NumNodes() }

// attachment is a feasible roadmap entry/exit point for a query
// endpoint: roadmap node plus the metric cost of the connecting local
// path.
type attachment struct {
	node int
	cost float64
}

// Query answers a motion-planning query against the frozen roadmap
// without mutating it: start and goal each attach to their k nearest
// reachable nodes, and a multi-source A* over the roadmap (straight-line
// s.Distance to goal as the heuristic, see search) finds the cheapest
// start-attachment → goal-attachment path. The returned path includes
// start and goal; ok is false when no connection exists. Success
// semantics match the reference Query exactly: the query succeeds iff
// some start attachment and some goal attachment share a connected
// component. s must be the space the roadmap's edge weights were
// measured in. Safe for concurrent use: working state comes from a pool.
func (ix *Index) Query(s *cspace.Space, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	sc := scratchPool.Get().(*BatchScratch)
	defer scratchPool.Put(sc)
	return ix.query(sc, s, start, goal, k, c)
}

func (ix *Index) query(sc *BatchScratch, s *cspace.Space, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	starts, goals := ix.endpoints(sc, s, start, goal, k, c)
	if len(goals) == 0 {
		return nil, false // also covers no start attachment: nothing matched
	}
	exit := ix.search(sc, s, goal, starts, goals)
	if exit < 0 {
		// Unreachable despite the component test can't happen (labels come
		// from the same graph), but guard anyway.
		return nil, false
	}
	return ix.path(sc, exit, start, goal), true
}

// endpoints attaches start and goal to the roadmap and returns the start
// attachments worth searching from and the goal attachments, both in sc.
func (ix *Index) endpoints(sc *BatchScratch, s *cspace.Space, start, goal cspace.Config, k int, c *cspace.Counters) (starts, goals []attachment) {
	if !s.ValidS(start, &sc.cs, c) || !s.ValidS(goal, &sc.cs, c) {
		return nil, nil
	}
	k = min(k, ix.NumNodes())
	if k <= 0 {
		return nil, nil
	}
	var evS, evG int
	sc.hits, evS = ix.forest.NearestInto(&sc.knn, start, k, -1, sc.hits[:0])
	ns := len(sc.hits)
	sc.hits, evG = ix.forest.NearestInto(&sc.knn, goal, k, -1, sc.hits)
	if c != nil {
		c.KNNQueries += 2
		c.KNNEvals += int64(evS + evG)
	}
	hitsS, hitsG := sc.hits[:ns], sc.hits[ns:]

	// Component test first, local plans second: each side only tries the
	// candidates whose component the other side can still reach, so a
	// disconnected query is rejected without a single local plan.
	sc.atts = sc.atts[:0]
	sc.labels = ix.hitLabels(sc.labels[:0], hitsG)
	starts = ix.attach(sc, s, start, hitsS, sc.labels, c)
	sc.labels = ix.attLabels(sc.labels[:0], starts)
	goals = ix.attach(sc, s, goal, hitsG, sc.labels, c)

	// A start attachment whose candidate partner on the goal side failed
	// its local plan is in a dead component: seeding it would only make
	// the search explore that component.
	sc.labels = ix.attLabels(sc.labels[:0], goals)
	live := starts[:0]
	for _, a := range starts {
		if hasLabel(sc.labels, ix.labels[a.node]) {
			live = append(live, a)
		}
	}
	return live, goals
}

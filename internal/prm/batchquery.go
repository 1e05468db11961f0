package prm

import (
	"math"

	"parmp/internal/cspace"
)

// endpoint is one distinct query endpoint (start or goal) in a batch:
// its configuration, its kd candidates (a range of the scratch's hits;
// empty when the endpoint is invalid — wrong dimension or in collision)
// and, once attached, its feasible roadmap entry points (a range of the
// scratch's atts).
type endpoint struct {
	q            cspace.Config
	hitLo, hitHi int
	attLo, attHi int
}

// sameBits reports whether a and b are the same floats bit for bit, so
// identical endpoints dedupe exactly: no epsilon, and a NaN coordinate
// matches only itself (Vec.Equal would match it with anything).
func sameBits(a, b cspace.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// intern returns the index of q among the batch's distinct endpoints,
// adding it when new. The table was sized for the batch by QueryBatch
// and never fills.
func (sc *BatchScratch) intern(q cspace.Config) int32 {
	h := uint64(len(q))
	for _, v := range q {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	mask := uint64(len(sc.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch e := sc.table[i]; {
		case e < 0:
			e = int32(len(sc.eps))
			sc.table[i] = e
			sc.eps = append(sc.eps, endpoint{q: q})
			return e
		case sameBits(sc.eps[e].q, q):
			return e
		}
	}
}

// QueryBatch answers len(starts) motion-planning queries against the
// frozen roadmap in one pass, amortizing work that a loop over Query
// would repeat per call:
//
//   - distinct endpoints are deduplicated, so a batch of queries over a
//     hot set of (start, goal) pairs validates and attaches each
//     configuration once;
//   - all endpoint kNN lookups go through one knn.NearestBatch call
//     sharing one scratch;
//   - queries with a common goal share one search, the loop Query runs,
//     here without a heuristic and rooted at the goal's attachments (the
//     roadmap is undirected, so goal-side distances answer every start
//     in the group).
//
// Query i's answer lands in paths[i]/oks[i] with Query's semantics:
// success iff some start attachment shares a connected component with
// some goal attachment, and the returned path minimizes attachment cost
// plus roadmap distance. Among exact metric ties the node sequence may
// differ from Query's, but the total length is equal.
//
// A nil sc means a pooled scratch, which is what every caller in this
// repository passes; see BatchScratch. Safe for concurrent use with nil
// or distinct scratches.
func (ix *Index) QueryBatch(s *cspace.Space, starts, goals []cspace.Config, k int, sc *BatchScratch, c *cspace.Counters) ([][]cspace.Config, []bool) {
	n := len(starts)
	paths := make([][]cspace.Config, n)
	oks := make([]bool, n)
	k = min(k, len(ix.pts))
	if len(goals) != n || n == 0 || k <= 0 {
		return paths, oks
	}
	if sc == nil {
		sc = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(sc)
	}

	// Dedupe endpoints: one validation + one attach per distinct config.
	size := 4
	for size < 4*n {
		size <<= 1 // at most 2n endpoints: the table stays at most half full
	}
	sc.table = resize(sc.table, size)
	for i := range sc.table {
		sc.table[i] = -1
	}
	sc.eps = sc.eps[:0]
	sc.startEp, sc.goalEp = resize(sc.startEp, n), resize(sc.goalEp, n)
	for i := range starts {
		sc.startEp[i] = sc.intern(starts[i])
		sc.goalEp[i] = sc.intern(goals[i])
	}
	eps := sc.eps

	// Validate distinct endpoints, then look the valid ones up through
	// one batched kd pass.
	sc.queries = sc.queries[:0]
	for i := range eps {
		ep := &eps[i]
		ep.hitLo = -1
		if len(ep.q) == s.Dim() && s.ValidS(ep.q, &sc.cs, c) {
			ep.hitLo = len(sc.queries) // its place in the kd batch, for now
			sc.queries = append(sc.queries, ep.q)
		}
	}
	var evals int
	sc.hits, sc.offs, evals = ix.tree.NearestBatch(&sc.knn, sc.queries, k, -1, sc.hits[:0], sc.offs[:0])
	if c != nil {
		c.KNNQueries += int64(len(sc.queries))
		c.KNNEvals += int64(evals)
	}
	for i := range eps {
		ep := &eps[i]
		if j := ep.hitLo; j >= 0 {
			ep.hitLo, ep.hitHi = sc.offs[j], sc.offs[j+1]
		} else {
			ep.hitLo, ep.hitHi = 0, 0
		}
	}

	// Component test before the local plans: a candidate is worth one only
	// if, in some query, the other endpoint has a candidate in the same
	// component.
	sc.need = resize(sc.need, len(sc.hits))
	clear(sc.need)
	for i := 0; i < n; i++ {
		a, b := &eps[sc.startEp[i]], &eps[sc.goalEp[i]]
		ix.needShared(sc, a, b)
		ix.needShared(sc, b, a)
	}
	sc.atts = sc.atts[:0]
	for i := range eps {
		ep := &eps[i]
		ep.attLo = len(sc.atts)
		for j := ep.hitLo; j < ep.hitHi; j++ {
			if node := sc.hits[j].Index; sc.need[j] && s.LocalPlanBatch(ep.q, ix.pts[node], &sc.bt, c) {
				sc.atts = append(sc.atts, attachment{node: node, cost: s.Distance(ep.q, ix.pts[node])})
			}
		}
		ep.attHi = len(sc.atts)
	}

	// Group the servable queries by goal endpoint (counting sort): each
	// group shares one search.
	sc.count = resize(sc.count, len(eps)+1)
	clear(sc.count)
	servable := func(i int) bool {
		a, b := &eps[sc.startEp[i]], &eps[sc.goalEp[i]]
		return a.attHi > a.attLo && b.attHi > b.attLo
	}
	for i := 0; i < n; i++ {
		if servable(i) {
			sc.count[sc.goalEp[i]+1]++
		}
	}
	for e := 1; e < len(sc.count); e++ {
		sc.count[e] += sc.count[e-1]
	}
	sc.order = resize(sc.order, int(sc.count[len(eps)]))
	for i := 0; i < n; i++ {
		if servable(i) {
			g := sc.goalEp[i]
			sc.order[sc.count[g]] = int32(i)
			sc.count[g]++ // count[g] ends as the end of group g
		}
	}
	for lo := 0; lo < len(sc.order); {
		g := sc.goalEp[sc.order[lo]]
		hi := int(sc.count[g])
		ix.solveGoalGroup(sc, s, g, sc.order[lo:hi], paths, oks)
		lo = hi
	}
	clear(sc.queries) // a pooled scratch must not pin the callers' configurations
	clear(eps)
	return paths, oks
}

// resize returns buf with length n, reusing its storage when it can.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// needShared flags the candidates of a that share a component with some
// candidate of b.
func (ix *Index) needShared(sc *BatchScratch, a, b *endpoint) {
	sc.labels = ix.hitLabels(sc.labels[:0], sc.hits[b.hitLo:b.hitHi])
	for j := a.hitLo; j < a.hitHi; j++ {
		if hasLabel(sc.labels, ix.labels[sc.hits[j].Index]) {
			sc.need[j] = true
		}
	}
}

// solveGoalGroup answers every query in members (all sharing goal
// endpoint gi) with one search seeded from the goal's attachments and
// run until every useful start attachment is settled. Distances flow
// goal→roadmap, so each query just takes the cheapest of its start
// attachments; prev chains already point toward the goal and read
// start→…→goal directly.
func (ix *Index) solveGoalGroup(sc *BatchScratch, s *cspace.Space, gi int32, members []int32, paths [][]cspace.Config, oks []bool) {
	goal := &sc.eps[gi]
	goalAtts := sc.atts[goal.attLo:goal.attHi]

	// Query's exact success criterion: a start attachment is a useful
	// target only when it shares a component with some goal attachment;
	// no other is ever reached. The starts of a group give the search no
	// common direction, so it runs without a heuristic (h ≡ 0).
	sc.labels = ix.attLabels(sc.labels[:0], goalAtts)
	sc.begin(len(ix.pts))
	for _, a := range goalAtts {
		sc.seed(int32(a.node), a.cost, 0)
	}
	for _, qi := range members {
		start := &sc.eps[sc.startEp[qi]]
		for _, a := range sc.atts[start.attLo:start.attHi] {
			if hasLabel(sc.labels, ix.labels[a.node]) {
				sc.target(int32(a.node))
			}
		}
	}
	ix.search(sc, s, nil, nil)

	for _, qi := range members {
		start := &sc.eps[sc.startEp[qi]]
		bestNode, best := int32(-1), math.Inf(1)
		for _, a := range sc.atts[start.attLo:start.attHi] {
			if node := int32(a.node); sc.reached(node) && a.cost+sc.dist[node] < best {
				bestNode, best = node, a.cost+sc.dist[node]
			}
		}
		if bestNode >= 0 {
			paths[qi] = ix.path(sc, bestNode, start.q, goal.q, true)
			oks[qi] = true
		}
	}
}

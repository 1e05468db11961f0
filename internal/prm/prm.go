// Package prm implements the sequential Probabilistic Roadmap Method
// (Kavraki et al., 1996) used inside each subdivision region, plus the
// roadmap data type and query answering.
//
// The parallel driver in internal/core invokes SampleRegion and then
// ConnectRegionTree once per region (Algorithm 1, line 8) and
// ConnectBoundary for each adjacent region pair (lines 10–12). All
// collision and nearest-neighbour work is metered through
// cspace.Counters so the load-balancing layers can charge virtual
// processors for the work actually performed.
package prm

import (
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/rng"
)

// Node is a roadmap vertex: a free configuration tagged with the region
// that produced it.
type Node struct {
	Q      cspace.Config
	Region int
}

// Roadmap is a graph over free configurations; edge weights are metric
// distances.
type Roadmap struct {
	G     *graph.Graph[Node]
	trees []*knn.KDTree // region trees, when set (see WithRegionTrees)
}

// WithRegionTrees returns the roadmap over g carrying the region trees
// its index is assembled from (see BuildIndex): trees[i] is a kd-tree
// over the configurations of the next trees[i].Len() vertices, in id
// order. Neither the slice nor a tree may be mutated afterwards.
func WithRegionTrees(g *graph.Graph[Node], trees []*knn.KDTree) *Roadmap {
	return &Roadmap{G: g, trees: trees}
}

// regionTrees reports whether m's region trees cover exactly its vertices.
func (m *Roadmap) regionTrees() bool {
	n := 0
	for _, t := range m.trees {
		if t == nil {
			return false
		}
		n += t.Len()
	}
	return len(m.trees) > 0 && n == m.NumNodes()
}

// RegionTree returns a kd-tree over the configurations of nodes, in
// order, in storage of its own, with its bounding box recorded for the
// forest: the tree a region keeps across rounds.
func RegionTree(nodes []Node) *knn.KDTree {
	var pts []geom.Vec
	return knn.BuildBoxed(gather(&pts, nodes))
}

// NumNodes returns the vertex count.
func (m *Roadmap) NumNodes() int { return m.G.NumVertices() }

// NumEdges returns the edge count.
func (m *Roadmap) NumEdges() int { return m.G.NumEdges() }

// Params configures the sequential PRM planner.
type Params struct {
	// SamplesPerRegion is the number of sampling attempts per region;
	// valid configurations among them become roadmap nodes.
	SamplesPerRegion int
	// K is the number of nearest neighbours per connection attempt.
	K int
	// Sampler generates candidates (default uniform). Narrow-passage
	// samplers (Gaussian, bridge) concentrate nodes where connectivity is
	// hard, at higher collision cost per attempt.
	Sampler cspace.Sampler
}

func (p Params) sampler() cspace.Sampler {
	if p.Sampler == nil {
		return cspace.UniformSampler{}
	}
	return p.Sampler
}

// SampleRegion draws p.SamplesPerRegion uniform configurations in box and
// keeps the valid ones — the cheap first sub-phase whose per-region node
// counts are the paper's repartitioning weight for PRM. Fixed-attempt
// sampling makes a region's node count proportional to its free volume,
// which is the load model the paper's theoretical analysis assumes ("the
// total load that the region will experience is proportional to V_free").
func SampleRegion(s *cspace.Space, box geom.AABB, regionID int, p Params, r *rng.Stream) ([]Node, cspace.Counters) {
	a := getArena()
	defer putArena(a)
	return sampleRegionArena(s, box, regionID, p, r, a)
}

// sampleRegionArena is SampleRegion through an explicit arena. Uniform
// sampling draws candidates into the arena's scratch configuration and
// clones only the accepted ones; custom samplers keep their allocating
// contract but validity still routes through the collision scratch.
func sampleRegionArena(s *cspace.Space, box geom.AABB, regionID int, p Params, r *rng.Stream, a *arena) ([]Node, cspace.Counters) {
	var work cspace.Counters
	nodes := make([]Node, 0, p.SamplesPerRegion)
	if _, uniform := p.sampler().(cspace.UniformSampler); uniform {
		for i := 0; i < p.SamplesPerRegion; i++ {
			a.sample = s.SampleInInto(a.sample, box, r, &work)
			if s.ValidS(a.sample, &a.sc, &work) {
				nodes = append(nodes, Node{Q: a.sample.Clone(), Region: regionID})
			}
		}
		return nodes, work
	}
	sampler := p.sampler()
	for i := 0; i < p.SamplesPerRegion; i++ {
		q, ok := sampler.Sample(s, box, r, &work)
		if ok {
			nodes = append(nodes, Node{Q: q, Region: regionID})
		}
	}
	return nodes, work
}

// ConnectRegionIncremental is ConnectRegionTree through a new region tree
// over nodes, as an engine round builds it.
func ConnectRegionIncremental(s *cspace.Space, nodes []Node, firstNew int, p Params) ([][2]int, cspace.Counters) {
	return ConnectRegionTree(s, RegionTree(nodes), firstNew, p)
}

// ConnectRegionTree connects each of a region's nodes to its K nearest
// neighbours within the region with the local planner — the expensive
// sub-phase ("the most time consuming phase of the entire computation",
// ~90 % of total execution in the paper's breakdown). Every k-nearest
// pair is attempted exactly once (the paper's PRM attempts all k-nearest
// connections; no connected-component shortcut). It reads the region's
// kept tree over its nodes (see RegionTree), and only the points from
// firstNew on query, against all of them, so a later engine round pays
// for its new samples without re-attempting the previous rounds' pairs;
// firstNew = 0 connects the whole region.
func ConnectRegionTree(s *cspace.Space, t *knn.KDTree, firstNew int, p Params) ([][2]int, cspace.Counters) {
	a := getArena()
	defer putArena(a)
	return connectTreeArena(s, t, firstNew, p, a)
}

// connectTreeArena is ConnectRegionTree through an explicit arena.
func connectTreeArena(s *cspace.Space, tree *knn.KDTree, firstNew int, p Params, a *arena) ([][2]int, cspace.Counters) {
	var work cspace.Counters
	pts := tree.Points()
	if len(pts) < 2 || firstNew >= len(pts) {
		return nil, work
	}
	seen := a.resetSeen()
	a.edges = a.edges[:0]
	k := p.K
	if k > len(pts)-1 {
		k = len(pts) - 1
	}
	// All kNN queries run as one batch through shared scratch (the tree
	// is static during connection), then candidate edges validate through
	// the batched SoA collision kernels.
	var evals int
	a.hits, a.offs, evals = tree.NearestBatch(&a.qsc, pts[firstNew:], k, firstNew, a.hits[:0], a.offs)
	work.KNNQueries += int64(len(pts) - firstNew)
	work.KNNEvals += int64(evals)
	for i := firstNew; i < len(pts); i++ {
		j := i - firstNew
		for _, h := range a.hits[a.offs[j]:a.offs[j+1]] {
			x, y := i, h.Index
			if x > y {
				x, y = y, x
			}
			key := [2]int{x, y}
			if seen[key] {
				continue
			}
			seen[key] = true
			if s.LocalPlanBatch(pts[x], pts[y], &a.bt, &work) {
				a.edges = append(a.edges, key)
			}
		}
	}
	return copyEdges(a.edges), work
}

// BoundaryResult is the product of connecting two adjacent regions.
type BoundaryResult struct {
	// Edges are (index into a's nodes, index into b's nodes) pairs that
	// were successfully connected.
	Edges [][2]int
	Work  cspace.Counters
	// Attempts is the number of cross-region connection attempts, each of
	// which is a remote access when the regions live on different
	// processors.
	Attempts int
}

// ConnectBoundary attempts connections between the roadmaps of two
// adjacent regions: the maxSources nodes of region a closest to region
// b's roadmap (the boundary frontier — only samples near the shared
// boundary participate) each try the local planner against their k
// nearest nodes in b.
// maxSources <= 0 uses every node of a.
func ConnectBoundary(s *cspace.Space, aNodes, bNodes []Node, k, maxSources int) BoundaryResult {
	ar := getArena()
	defer putArena(ar)
	return connectBoundaryArena(s, aNodes, bNodes, k, maxSources, ar)
}

// connectBoundaryArena is ConnectBoundary through an explicit arena. The
// frontier centroid accumulates in place in a reused buffer (the
// allocating version rebuilt the centroid vector once per added point),
// and both regions' point slices, the kd-tree and all kNN scratch come
// from the arena.
func connectBoundaryArena(s *cspace.Space, aNodes, bNodes []Node, k, maxSources int, ar *arena) BoundaryResult {
	ar.tree.Reset(gather(&ar.pts, bNodes))
	return connectBoundaryTreeArena(s, aNodes, &ar.tree, k, maxSources, ar)
}

// ConnectBoundaryTree is ConnectBoundary against region b's kept tree
// over its nodes (see RegionTree), which it only reads.
func ConnectBoundaryTree(s *cspace.Space, aNodes []Node, bTree *knn.KDTree, k, maxSources int) BoundaryResult {
	ar := getArena()
	defer putArena(ar)
	return connectBoundaryTreeArena(s, aNodes, bTree, k, maxSources, ar)
}

// connectBoundaryTreeArena is the body of the two.
func connectBoundaryTreeArena(s *cspace.Space, aNodes []Node, tree *knn.KDTree, k, maxSources int, ar *arena) BoundaryResult {
	var res BoundaryResult
	bPts := tree.Points()
	if len(aNodes) == 0 || len(bPts) == 0 {
		return res
	}
	if k <= 0 {
		k = 1
	}
	// Frontier selection: a's nodes nearest to the centroid of b.
	if cap(ar.sources) < len(aNodes) {
		ar.sources = make([]int, 0, len(aNodes))
	}
	sources := ar.sources[:0]
	if maxSources > 0 && maxSources < len(aNodes) {
		dim := len(bPts[0])
		if cap(ar.centroid) < dim {
			ar.centroid = make(geom.Vec, dim)
		}
		centroid := ar.centroid[:dim]
		for i := range centroid {
			centroid[i] = 0
		}
		for _, p := range bPts {
			centroid.AddInPlace(p)
		}
		centroid.ScaleInPlace(1 / float64(len(bPts)))
		aPts := gather(&ar.aux, aNodes)
		var hits []knn.Result
		hits, _ = knn.BruteNearestInto(&ar.qsc, aPts, centroid, maxSources, -1, ar.hits[:0])
		ar.hits = hits
		res.Work.KNNQueries++
		res.Work.KNNEvals += int64(len(aPts))
		for _, h := range hits {
			sources = append(sources, h.Index)
		}
	} else {
		for i := range aNodes {
			sources = append(sources, i)
		}
	}
	ar.sources = sources

	ar.edges = ar.edges[:0]
	for _, i := range sources {
		var evals int
		ar.hits, evals = tree.NearestInto(&ar.qsc, aNodes[i].Q, k, -1, ar.hits[:0])
		res.Work.KNNQueries++
		res.Work.KNNEvals += int64(evals)
		for _, h := range ar.hits {
			res.Attempts++
			if s.LocalPlanBatch(aNodes[i].Q, bPts[h.Index], &ar.bt, &res.Work) {
				ar.edges = append(ar.edges, [2]int{i, h.Index})
				break // one bridge per source node suffices
			}
		}
	}
	res.Edges = copyEdges(ar.edges)
	return res
}

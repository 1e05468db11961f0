// Package rrt implements the sequential Rapidly-exploring Random Tree
// (LaValle & Kuffner, 2001) used inside each radial-subdivision region.
//
// Each region grows a branch rooted at the shared root configuration,
// biased toward the region's target point on the subdivision sphere
// (Algorithm 2 of the paper, lines 10–12). Growth is constrained to the
// region's cone, and all collision work is metered through
// cspace.Counters for load accounting.
package rrt

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// Node is a tree vertex: configuration plus parent index (-1 for root).
type Node struct {
	Q      cspace.Config
	Parent int
	Region int
}

// Tree is an RRT branch: Nodes[0] is the root.
type Tree struct {
	Nodes []Node
	// Cost is each node's cost-to-root, parallel to Nodes, which RRT*
	// maintains so rewiring can improve it; nil for plain branches.
	Cost []float64
}

// NewTree returns a tree containing only root.
func NewTree(root cspace.Config, regionID int) *Tree {
	return &Tree{Nodes: []Node{{Q: root.Clone(), Parent: -1, Region: regionID}}}
}

// Len returns the node count.
func (t *Tree) Len() int { return len(t.Nodes) }

// Copy returns a tree with its own node and cost slices (configurations
// are shared — tree nodes are immutable once appended), so growth,
// rewiring and pruning on the copy leave t untouched. A nil tree copies
// to nil.
func (t *Tree) Copy() *Tree {
	if t == nil {
		return nil
	}
	return &Tree{Nodes: append([]Node(nil), t.Nodes...), Cost: append([]float64(nil), t.Cost...)}
}

// RecomputeCost rebuilds Cost by a forward pass over Nodes (parents
// precede children in an append-only or freshly pruned tree), pricing
// every parent edge — regrafted ones included — by the space's metric.
func (t *Tree) RecomputeCost(s *cspace.Space) {
	t.Cost = make([]float64, 0, t.Len())
	for _, nd := range t.Nodes {
		c := 0.0
		if nd.Parent >= 0 {
			c = t.Cost[nd.Parent] + s.Distance(t.Nodes[nd.Parent].Q, nd.Q)
		}
		t.Cost = append(t.Cost, c)
	}
}

// PathToRoot returns the node indices from node i back to the root.
func (t *Tree) PathToRoot(i int) []int {
	var path []int
	for ; i >= 0; i = t.Nodes[i].Parent {
		path = append(path, i)
	}
	return path
}

// Params configures region RRT growth.
type Params struct {
	// Nodes is the target number of tree nodes to grow in the region.
	Nodes int
	// Step is Δq, the maximum extension step in metric distance.
	Step float64
	// GoalBias is the probability of sampling the region's cone target
	// instead of a uniform point in the cone.
	GoalBias float64
}

// maxIters bounds expansion iterations: a cone that points into an
// obstacle stops trying after 20 attempts per requested node.
func (p Params) maxIters() int { return 20 * p.Nodes }

// Result is the product of growing one region branch.
type Result struct {
	Tree *Tree
	Work cspace.Counters
	// Iters is the number of expansion iterations consumed.
	Iters int
}

// GrowTree grows an RRT branch inside reg: sample in the cone (biased
// toward the cone target), extend the nearest tree node by at most Step,
// keep the new node if the extension is collision-free and stays inside
// the cone — until the branch has p.Nodes nodes
// (total, not additional) or the iteration budget runs out. An engine's
// first round passes a fresh single-node tree (NewTree(reg.Apex,
// reg.ID)); later rounds pass the previous round's tree to resume
// growth.
//
// The returned work counters reflect the actual collision effort, which
// varies strongly with the obstacle density in the cone's direction —
// exactly the dynamic, hard-to-estimate workload the paper describes for
// radial RRT.
func GrowTree(s *cspace.Space, reg *region.Region, tree *Tree, p Params, r *rng.Stream) Result {
	a := getArena()
	defer putArena(a)
	return growTreeArena(s, reg, tree, p, r, a)
}

// growTreeArena is GrowTree through an explicit arena: candidate and
// stepped configurations live in reused buffers (cloned only on
// acceptance) and collision checks route through the arena's scratch.
// RNG consumption does not depend on the arena's history, so the grown
// tree is the same for the same stream.
func growTreeArena(s *cspace.Space, reg *region.Region, tree *Tree, p Params, r *rng.Stream, a *arena) Result {
	res := Result{Tree: tree}
	target := region.ConeTarget(reg)
	for res.Iters = 0; res.Iters < p.maxIters() && tree.Len() < p.Nodes; res.Iters++ {
		qRand := a.sample(reg, target, p.GoalBias, r)
		from, _ := nearest(s, tree, qRand, &res.Work)
		a.step(s, reg, tree, from, qRand, p.Step, &res.Work)
	}
	return res
}

// sample draws an extension target into a.qRand: the cone's target with
// probability goalBias, else a uniform point in the cone.
func (a *arena) sample(reg *region.Region, target geom.Vec, goalBias float64, r *rng.Stream) cspace.Config {
	if r.Float64() < goalBias {
		a.qRand = geom.CopyInto(a.qRand, target)
	} else {
		a.qRand = region.SampleInConeInto(a.qRand, reg, r)
	}
	return a.qRand
}

// nearest returns t's node nearest to q under the space's weighted
// metric (angular DOFs are down-weighted so spatial exploration is not
// dominated by heading differences) and its distance. Brute force: the
// tree is rebuilt incrementally and stays small per region; metering
// matches kd usage elsewhere.
func nearest(s *cspace.Space, t *Tree, q cspace.Config, w *cspace.Counters) (int, float64) {
	idx, best := 0, math.Inf(1)
	for i, n := range t.Nodes {
		if d := s.Distance(n.Q, q); d < best {
			idx, best = i, d
		}
	}
	w.KNNQueries++
	w.KNNEvals += int64(t.Len())
	return idx, best
}

// step is the one extension primitive of the plain and bidirectional
// growers: move at most stepSize from t's node from toward q and append
// the stepped configuration as from's child when it lies in bounds and
// in the region, is valid, and the edge to it is collision-free. It
// returns the new node's index, whether the step landed exactly on q,
// and whether it was accepted.
func (a *arena) step(s *cspace.Space, reg *region.Region, t *Tree, from int, q cspace.Config, stepSize float64, w *cspace.Counters) (idx int, reached, ok bool) {
	qNear := t.Nodes[from].Q
	a.qNew, reached = s.StepTowardInto(a.qNew, qNear, q, stepSize)
	qNew := a.qNew
	w.Samples++
	if !s.Bounds.Contains(qNew) {
		return 0, false, false
	}
	// Stay within the region's cone, whose half-angle reaches the
	// nearest neighbouring ray, so a branch explores part of its
	// neighbours' space. Steered spaces are exempt: a feasible curve's
	// first step generally does not move toward the sample, so the cone
	// acts as a sampling bias only.
	if s.Steer == nil && !region.InCone(reg, qNew[:reg.Apex.Dim()]) {
		return 0, false, false
	}
	if !s.ValidS(qNew, &a.sc, w) {
		return 0, false, false
	}
	if !s.LocalPlanBatch(qNear, qNew, &a.bt, w) {
		return 0, false, false
	}
	t.Nodes = append(t.Nodes, Node{Q: qNew.Clone(), Parent: from, Region: reg.ID})
	return t.Len() - 1, reached, true
}

// Connect attempts to join two region branches: for each frontier node of
// a (up to kFrontier nodes nearest to b's cone target), try a local plan
// to the nearest nodes of b. It returns the first successful bridging pair
// (index in a, index in b) and ok.
func Connect(s *cspace.Space, a, b *Tree, bTarget geom.Vec, kFrontier int, c *cspace.Counters) (int, int, bool) {
	ar := getArena()
	defer putArena(ar)
	return connectArena(s, a, b, bTarget, kFrontier, c, ar)
}

// connectArena is Connect through an explicit arena: both trees' point
// slices, the kd-tree over b and all kNN scratch are reused.
func connectArena(s *cspace.Space, a, b *Tree, bTarget geom.Vec, kFrontier int, c *cspace.Counters, ar *arena) (int, int, bool) {
	if a.Len() == 0 || b.Len() == 0 {
		return 0, 0, false
	}
	aPts, bPts := gather(&ar.aux, a), gather(&ar.pts, b)
	// Frontier of a: nodes nearest to b's territory.
	frontier, _ := knn.BruteNearestInto(&ar.qsc, aPts, bTarget, kFrontier, -1, ar.near[:0])
	ar.near = frontier
	ar.tree.Reset(bPts)
	if c != nil {
		c.KNNQueries += int64(1 + len(frontier))
	}
	for _, f := range frontier {
		var evals int
		ar.hits, evals = ar.tree.NearestInto(&ar.qsc, aPts[f.Index], 3, -1, ar.hits[:0])
		if c != nil {
			c.KNNEvals += int64(evals)
		}
		for _, h := range ar.hits {
			if s.LocalPlanBatch(aPts[f.Index], bPts[h.Index], &ar.bt, c) {
				return f.Index, h.Index, true
			}
		}
	}
	return 0, 0, false
}

package rrt

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// StarTree is an RRT* branch: like Tree but with path costs maintained
// per node so rewiring can improve them.
type StarTree struct {
	Nodes []Node
	Cost  []float64 // cost-to-root per node
}

// Len returns the node count.
func (t *StarTree) Len() int { return len(t.Nodes) }

// rewireSteps is the RRT* choose-parent and rewiring neighbourhood
// radius, in steps.
const rewireSteps = 3

// StarResult is the product of growing one RRT* region branch.
type StarResult struct {
	Tree    *StarTree
	Work    cspace.Counters
	Iters   int
	Rewires int // parent changes applied by the rewiring step
}

// GrowStarTree grows an asymptotically-optimal RRT* branch inside reg
// (Karaman & Frazzoli 2011; the GPU-parallelized variant is Bialkowski et
// al. 2011, cited by the paper) until it has p.Nodes nodes (total) or
// the iteration budget runs out. It extends like GrowTree but chooses
// the lowest-cost parent in the rewire neighbourhood and rewires
// neighbours through the new node when that shortens their path to the
// root. The extra local planning makes region costs even more
// heterogeneous, which is why it is interesting for load balancing. Like
// GrowTree, an engine's first round passes a fresh single-node tree
// (the cone's apex at cost 0) and later rounds the previous round's tree
// with its cost-to-root vector, so choose-parent and rewiring keep
// improving the existing branch.
func GrowStarTree(s *cspace.Space, reg *region.Region, tree *StarTree, p Params, r *rng.Stream) StarResult {
	a := getArena()
	defer putArena(a)
	res := StarResult{Tree: tree}
	target := region.ConeTarget(reg)
	radius := rewireSteps * p.Step
	for res.Iters = 0; res.Iters < p.maxIters() && res.Tree.Len() < p.Nodes; res.Iters++ {
		if r.Float64() < p.GoalBias {
			a.qRand = geom.CopyInto(a.qRand, target)
		} else {
			a.qRand = region.SampleInConeInto(a.qRand, reg, r)
		}
		qRand := a.qRand
		if cap(a.pts) < res.Tree.Len() {
			a.pts = make([]geom.Vec, res.Tree.Len())
		}
		pts := a.pts[:res.Tree.Len()]
		nearIdx := 0
		bestNear := math.Inf(1)
		for i, n := range res.Tree.Nodes {
			pts[i] = n.Q
			if d := s.Distance(n.Q, qRand); d < bestNear {
				bestNear = d
				nearIdx = i
			}
		}
		res.Work.KNNQueries++
		res.Work.KNNEvals += int64(len(pts))
		a.qNew, _ = s.StepTowardInto(a.qNew, res.Tree.Nodes[nearIdx].Q, qRand, p.Step)
		qNew := a.qNew
		res.Work.Samples++
		if !s.Bounds.Contains(qNew) || !region.InCone(reg, qNew[:reg.Apex.Dim()]) {
			continue
		}
		if !s.ValidS(qNew, &a.sc, &res.Work) {
			continue
		}

		// Choose-parent: the neighbour minimizing cost-to-root + edge.
		neighbours := knn.BruteRadiusInto(pts, qNew, radius, a.near[:0])
		a.near = neighbours
		res.Work.KNNEvals += int64(len(pts))
		bestParent := -1
		bestCost := math.Inf(1)
		if s.LocalPlanS(res.Tree.Nodes[nearIdx].Q, qNew, &a.sc, &res.Work) {
			bestParent = nearIdx
			bestCost = res.Tree.Cost[nearIdx] + s.Distance(res.Tree.Nodes[nearIdx].Q, qNew)
		}
		for _, nb := range neighbours {
			if nb.Index == nearIdx {
				continue
			}
			cand := res.Tree.Cost[nb.Index] + s.Distance(res.Tree.Nodes[nb.Index].Q, qNew)
			if cand >= bestCost {
				continue
			}
			if s.LocalPlanS(res.Tree.Nodes[nb.Index].Q, qNew, &a.sc, &res.Work) {
				bestParent = nb.Index
				bestCost = cand
			}
		}
		if bestParent < 0 {
			continue
		}
		newIdx := res.Tree.Len()
		kept := qNew.Clone()
		res.Tree.Nodes = append(res.Tree.Nodes, Node{Q: kept, Parent: bestParent, Region: reg.ID})
		res.Tree.Cost = append(res.Tree.Cost, bestCost)

		// Rewire: route neighbours through the new node when cheaper.
		for _, nb := range neighbours {
			through := bestCost + s.Distance(kept, res.Tree.Nodes[nb.Index].Q)
			if through >= res.Tree.Cost[nb.Index] {
				continue
			}
			if s.LocalPlanS(kept, res.Tree.Nodes[nb.Index].Q, &a.sc, &res.Work) {
				res.Tree.Nodes[nb.Index].Parent = newIdx
				delta := res.Tree.Cost[nb.Index] - through
				res.Tree.Cost[nb.Index] = through
				res.Rewires++
				propagateCostDrop(res.Tree, nb.Index, delta)
			}
		}
	}
	return res
}

// propagateCostDrop pushes a cost reduction at node idx down to its
// descendants.
func propagateCostDrop(t *StarTree, idx int, delta float64) {
	for i := range t.Nodes {
		if t.Nodes[i].Parent == idx {
			t.Cost[i] -= delta
			propagateCostDrop(t, i, delta)
		}
	}
}

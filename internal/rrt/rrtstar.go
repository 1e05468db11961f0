package rrt

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/knn"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// rewireSteps is the RRT* choose-parent and rewiring neighbourhood
// radius, in steps.
const rewireSteps = 3

// StarResult is the product of growing one RRT* region branch; Tree
// carries the cost-to-root vector.
type StarResult struct {
	Tree    *Tree
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
// (NewTree: the cone's apex) and later rounds the previous round's tree
// with its cost-to-root vector, so choose-parent and rewiring keep
// improving the existing branch; a tree handed over without costs gets
// them from Tree.RecomputeCost first.
//
// The acceptance test is RRT*'s own, not the plain growers' step: it has
// no steered-space cone exemption, and its edges validate through the
// bisection local planner (LocalPlanS), which stops billing a rejected
// edge at the first collision it finds where the SoA batch order bills
// every step up front — the cheaper algorithm for the long, often
// blocked edges choose-parent and rewiring propose, not a copy of it.
func GrowStarTree(s *cspace.Space, reg *region.Region, tree *Tree, p Params, r *rng.Stream) StarResult {
	a := getArena()
	defer putArena(a)
	if len(tree.Cost) != tree.Len() {
		tree.RecomputeCost(s)
	}
	res := StarResult{Tree: tree}
	target := region.ConeTarget(reg)
	radius := rewireSteps * p.Step
	for res.Iters = 0; res.Iters < p.maxIters() && res.Tree.Len() < p.Nodes; res.Iters++ {
		qRand := a.sample(reg, target, p.GoalBias, r)
		nearIdx, _ := nearest(s, res.Tree, qRand, &res.Work)
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
		pts := gather(&a.pts, res.Tree)
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
func propagateCostDrop(t *Tree, idx int, delta float64) {
	for i := range t.Nodes {
		if t.Nodes[i].Parent == idx {
			t.Cost[i] -= delta
			propagateCostDrop(t, i, delta)
		}
	}
}

package rrt

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// BiTree is the bidirectional tree pair one region grows with the
// RRT-Connect strategy (Kuffner & LaValle, 2000): A roots at the shared
// root (the region apex), B at the goal side of the cone. The two trees
// alternately extend toward cone samples and greedily march toward each
// other's newest node until they meet.
type BiTree struct {
	// A is rooted at the region apex (the shared root configuration).
	A *Tree
	// B is the goal-side tree; nil when no free root was found in the
	// cone (the region degrades to single-tree growth).
	B *Tree
	// Met reports the trees bridged; AMeet/BMeet are the meeting node
	// indices (equal configurations, one in each tree).
	Met          bool
	AMeet, BMeet int
}

// Copy returns a deep copy of the bi-tree's node slices (configurations
// are shared — tree nodes are immutable once appended).
func (bi *BiTree) Copy() *BiTree {
	return &BiTree{A: bi.A.Copy(), B: bi.B.Copy(), Met: bi.Met, AMeet: bi.AMeet, BMeet: bi.BMeet}
}

// Len returns the combined node count of both trees.
func (bi *BiTree) Len() int {
	n := 0
	if bi.A != nil {
		n += bi.A.Len()
	}
	if bi.B != nil {
		n += bi.B.Len()
	}
	return n
}

// BiResult is the product of one region's RRT-Connect growth.
type BiResult struct {
	Bi    *BiTree
	Work  cspace.Counters
	Iters int
}

// NewBiTree roots a region's tree pair: A always at the region apex; B
// at the global goal when it lies (validly) in the region's cone, else
// at the cone target when free, else at a free configuration sampled in
// the cone (consuming r), else not at all (single-tree degradation).
// The returned counters meter the validity checks and samples spent.
func NewBiTree(s *cspace.Space, reg *region.Region, goal cspace.Config, r *rng.Stream) (*BiTree, cspace.Counters) {
	a := getArena()
	defer putArena(a)
	return newBiTreeArena(s, reg, goal, r, a)
}

// newBiTreeArena is NewBiTree through an explicit arena.
func newBiTreeArena(s *cspace.Space, reg *region.Region, goal cspace.Config, r *rng.Stream, a *arena) (*BiTree, cspace.Counters) {
	var work cspace.Counters
	bi := &BiTree{A: NewTree(reg.Apex, reg.ID)}
	d := reg.Apex.Dim()
	if goal != nil && len(goal) == d && region.InCone(reg, goal) && s.ValidS(goal, &a.sc, &work) {
		bi.B = NewTree(goal, reg.ID)
		return bi, work
	}
	target := boundedConeTarget(s, reg)
	if s.Bounds.Contains(target) && s.ValidS(target, &a.sc, &work) {
		bi.B = NewTree(target, reg.ID)
		return bi, work
	}
	for try := 0; try < 32; try++ {
		a.qRand = region.SampleInConeInto(a.qRand, reg, r)
		work.Samples++
		if !s.Bounds.Contains(a.qRand) {
			continue
		}
		if s.ValidS(a.qRand, &a.sc, &work) {
			bi.B = NewTree(a.qRand, reg.ID)
			return bi, work
		}
	}
	return bi, work
}

// boundedConeTarget returns the cone-axis target clamped to the space
// bounds: the paper's q_i on the subdivision sphere when that lies
// inside, else the point just before the axis exits the bounds. When the
// subdivision radius spans the whole workspace (the single-query
// default), the clamped targets sit on the far boundary — the goal side
// of every cone — which is where a goal-side root is worth growing from.
func boundedConeTarget(s *cspace.Space, reg *region.Region) cspace.Config {
	target := region.ConeTarget(reg)
	if s.Bounds.Contains(target) {
		return target
	}
	tmax := reg.Radius
	for d := 0; d < reg.Apex.Dim(); d++ {
		dir := reg.Ray[d]
		var lim float64
		switch {
		case dir > 0:
			lim = (s.Bounds.Hi[d] - reg.Apex[d]) / dir
		case dir < 0:
			lim = (s.Bounds.Lo[d] - reg.Apex[d]) / dir
		default:
			continue
		}
		if lim < tmax {
			tmax = lim
		}
	}
	if tmax <= 0 {
		return target // apex on or outside the bounds: keep the sphere target
	}
	return reg.Apex.Add(reg.Ray.Scale(tmax * 0.999))
}

// GrowBiTree is growBiTreeArena through a pooled arena.
func GrowBiTree(s *cspace.Space, reg *region.Region, bi *BiTree, p Params, r *rng.Stream) BiResult {
	a := getArena()
	defer putArena(a)
	return growBiTreeArena(s, reg, bi, p, r, a)
}

// growBiTreeArena continues growing a region's tree pair until the
// combined node count reaches p.Nodes, the iteration budget runs out,
// or the trees meet (a met pair stops growing — its corridor through
// the region is established). Each iteration extends one tree (they
// alternate) by at most Step toward a cone sample, and on acceptance
// the other tree greedily marches toward the new node until it reaches
// it exactly or a step is blocked. All candidate edges validate through
// the batched SoA collision kernels.
//
// Passing a freshly rooted pair is exactly the one-shot planner's first
// round, so engines resuming a committed pair stay bit-identical to an
// uninterrupted run with the same per-round streams. RRT-Connect
// requires symmetric local motions; callers gate steered spaces out.
func growBiTreeArena(s *cspace.Space, reg *region.Region, bi *BiTree, p Params, r *rng.Stream, a *arena) BiResult {
	res := BiResult{Bi: bi}
	if bi.B == nil {
		// No free goal-side root exists in this region's cone: grow a
		// plain branch so the region still contributes coverage.
		gr := growTreeArena(s, reg, bi.A, p, r, a)
		res.Work = gr.Work
		res.Iters = gr.Iters
		return res
	}
	target := region.ConeTarget(reg)
	for res.Iters = 0; res.Iters < p.maxIters() && bi.Len() < p.Nodes && !bi.Met; res.Iters++ {
		cur, other := bi.A, bi.B
		if res.Iters%2 == 1 {
			cur, other = bi.B, bi.A
		}
		qRand := a.sample(reg, target, p.GoalBias, r)
		from, _ := nearest(s, cur, qRand, &res.Work)
		newIdx, _, ok := a.step(s, reg, cur, from, qRand, p.Step, &res.Work)
		if !ok {
			continue
		}
		meetIdx, reached := connectGreedy(s, reg, other, cur.Nodes[newIdx].Q, p.Step, &res.Work, a)
		if reached {
			bi.Met = true
			if cur == bi.A {
				bi.AMeet, bi.BMeet = newIdx, meetIdx
			} else {
				bi.AMeet, bi.BMeet = meetIdx, newIdx
			}
		}
	}
	return res
}

// connectGreedy is the CONNECT heuristic: starting from t's node
// nearest to q, repeatedly step toward q, appending each accepted step
// as a node, until q is reached exactly (returning its node index and
// true) or a step leaves the region, collides, or the step budget runs
// out (trapped).
func connectGreedy(s *cspace.Space, reg *region.Region, t *Tree, q cspace.Config, step float64, w *cspace.Counters, a *arena) (int, bool) {
	cur, d := nearest(s, t, q, w)
	// Straight-line marching covers d in ceil(d/step) steps; the 2x slack
	// plus constant guards float edge cases without allowing unbounded
	// growth.
	maxSteps := 4 + 2*int(math.Ceil(d/step))
	for n := 0; n < maxSteps; n++ {
		next, reached, ok := a.step(s, reg, t, cur, q, step, w)
		if !ok {
			return 0, false
		}
		if reached {
			return next, true
		}
		cur = next
	}
	return 0, false
}

// MergeBiTree flattens a region's tree pair into one root-anchored
// branch. When the trees met, B is re-rooted at its meeting node and
// grafted under A's meeting node (the edges along B's meet→root path
// reverse), so every merged node reaches the shared root by parent
// walks — the invariant core.TreeIndex path extraction relies on. The
// merged meeting node duplicates A's meeting configuration as a
// zero-length edge, which path extraction tolerates. An unmet pair
// contributes only A: B's nodes cannot reach the root.
func MergeBiTree(bi *BiTree) *Tree {
	if bi.B == nil || !bi.Met {
		return bi.A
	}
	merged := &Tree{Nodes: make([]Node, 0, bi.A.Len()+bi.B.Len())}
	merged.Nodes = append(merged.Nodes, bi.A.Nodes...)
	base := bi.A.Len()

	// Reverse the parent edges along B's meet→root path.
	var path []int
	for i := bi.BMeet; i >= 0; i = bi.B.Nodes[i].Parent {
		path = append(path, i)
	}
	const graft = -2 // sentinel: parent is A's meeting node
	np := make([]int, bi.B.Len())
	for i, n := range bi.B.Nodes {
		np[i] = n.Parent
	}
	np[path[0]] = graft
	for j := 1; j < len(path); j++ {
		np[path[j]] = path[j-1]
	}
	for j, n := range bi.B.Nodes {
		parent := np[j]
		if parent == graft {
			parent = bi.AMeet
		} else {
			parent = base + parent
		}
		merged.Nodes = append(merged.Nodes, Node{Q: n.Q, Parent: parent, Region: n.Region})
	}
	return merged
}

package core

import (
	"errors"
	"fmt"
	"math"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
	"parmp/internal/rrt"
	"parmp/internal/work"
)

// RRTResult is the outcome of a parallel radial RRT run.
type RRTResult struct {
	RunStats
	// Branches holds each region's grown subtree, indexed by region ID
	// (under RRT-Connect, the merged root-anchored branch of the pair).
	Branches []*rrt.Tree
	// Bridges are successful cross-region connections (regionA, nodeA,
	// regionB, nodeB). Bridges that would close a cycle in the
	// region-level tree are pruned (Algorithm 2, lines 15-17).
	Bridges [][4]int
	// PrunedCycles counts bridge candidates discarded to keep the
	// region-level structure a tree.
	PrunedCycles int
	// Rewires counts RRT* parent improvements (0 for plain RRT).
	Rewires int
	// TreesMet counts regions whose RRT-Connect tree pairs have bridged
	// (0 for single-tree RRT).
	TreesMet int
	// GoalConnected reports that the region containing the goal rooted
	// its goal-side tree at the goal configuration and that pair met —
	// i.e. the merged forest contains a path from the root to the exact
	// goal (RRT-Connect only).
	GoalConnected bool
	// WeightActualCorr is the Pearson correlation between the k-ray
	// weight estimate and the measured branch cost — the paper's evidence
	// that the estimator is poor (only populated when Strategy is
	// Repartition).
	WeightActualCorr float64
}

// TotalNodes sums the nodes of all branches.
func (r *RRTResult) TotalNodes() int {
	total := 0
	for _, t := range r.Branches {
		if t != nil {
			total += t.Len()
		}
	}
	return total
}

// branch is one region's growth state under any of the tree planner's
// three growth variants. tree is the root-anchored branch that the
// connection phase, results and snapshots see (under RRT* it carries
// each node's cost-to-root); RRT-Connect also keeps the tree pair that
// tree is merged from. A zero branch is a region that has not grown yet.
type branch struct {
	tree *rrt.Tree
	bi   *rrt.BiTree // RRT-Connect only
}

// size is the node count the region carries when it migrates: both
// trees of an RRT-Connect pair, met or not.
func (b branch) size() int {
	switch {
	case b.bi != nil:
		return b.bi.Len()
	case b.tree != nil:
		return b.tree.Len()
	}
	return 0
}

// RRTEngine grows the radial-subdivision parallel tree planners
// incrementally: each GrowRound extends every region's branch by
// NodesPerRegion more nodes through the phase pipeline (growth
// stealable, then branch connection with cycle pruning), reusing the
// region graph, cone geometry and ownership state across rounds. It is
// the round driver (engine) with the tree planner hooks; the growth
// variant is plain RRT, RRT* (Options.Star) or RRT-Connect (a goal was
// given — see NewRRTConnectEngine), and a one-shot plan is exactly one
// round of it.
type RRTEngine struct {
	engine
	goal   cspace.Config // RRT-Connect only; nil selects single-tree growth
	params rrt.Params

	// branches, bridges and prunedCycles are the committed forest; the
	// per-round union-find is rebuilt from bridges.
	branches     []branch
	bridges      [][4]int
	prunedCycles int
	rewires      int
	weightCorr   float64

	rd  *treeRound  // the open growth round's buffers
	rp  *treeRepair // the open repair's buffers
	res *RRTResult  // last committed cumulative result
}

// treeRound holds one growth round's output until commit.
type treeRound struct {
	grown     []branch
	rewires   []int
	conns     []bridgeTry      // per adjacent pair
	uf        *graph.UnionFind // region-level components: committed + booked bridges
	bridges   [][4]int
	newPruned int
}

// bridgeTry is one adjacent pair's bridge attempt: on success, the
// bridging nodes in the two regions' branches.
type bridgeTry struct {
	ia, ib int
	ok     bool
}

// treeRepair holds one ApplyDelta's output until commit.
type treeRepair struct {
	pruned  []branch
	remaps  [][]int // per region, in published-branch ids; nil = identity
	sts     []RepairStats
	bridges []bridgeCheck // per committed bridge
}

// bridgeCheck is one committed bridge's re-validation: its address in
// the repaired branches when it survives (keep), and the re-check and
// collision work paid when the delta could have blocked it.
type bridgeCheck struct {
	at   [4]int
	keep bool
	RepairStats
}

// NewRRTEngine validates opts and builds the radial subdivision about
// root. No planning work happens until GrowRound.
func NewRRTEngine(s *cspace.Space, root cspace.Config, opts Options) (*RRTEngine, error) {
	return newTreeEngine(s, root, nil, opts)
}

// NewRRTConnectEngine is NewRRTEngine with the RRT-Connect growth
// variant: every region grows TWO trees — one rooted at the shared root
// (the subdivision apex), one at the goal side of its cone (at the
// global goal for the region containing it) — alternately extending and
// greedily connecting until they meet. Met regions stop growing; their
// merged, root-anchored branch joins the cross-region connection phase
// exactly like a plain RRT branch, so the whole load-balancing pipeline
// (k-ray weights, repartitioning, work stealing, bridge pruning) applies
// unchanged.
//
// RRT-Connect marches both trees along straight local plans in both
// directions, so it requires symmetric local motions: spaces with a
// steering function (Dubins) are rejected. The goal must be a
// valid-length configuration; it seeds the goal-side tree of whichever
// region contains it.
func NewRRTConnectEngine(s *cspace.Space, root, goal cspace.Config, opts Options) (*RRTEngine, error) {
	if s.Steer != nil {
		return nil, errors.New("core: RRT-Connect requires symmetric local motions (steered spaces are not supported)")
	}
	if goal == nil {
		return nil, errors.New("core: RRT-Connect requires a goal configuration")
	}
	if goal.Dim() != root.Dim() {
		return nil, fmt.Errorf("core: goal dimension %d != root dimension %d", goal.Dim(), root.Dim())
	}
	return newTreeEngine(s, root, goal.Clone(), opts)
}

// The tree planners' fixed shape: the probability of steering a branch
// at its cone's target instead of a random sample, and how many adjacent
// cones each cone has in the radial region graph.
const (
	rrtGoalBias = 0.1
	rrtRegionK  = 4
)

func newTreeEngine(s *cspace.Space, root, goal cspace.Config, opts Options) (*RRTEngine, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	apex := root.Clone()
	setupRNG := rng.Derive(opts.Seed, 0xabcdef)
	rg := region.RadialSubdivision(apex, region.RadialSpec{
		Regions: opts.Regions,
		K:       rrtRegionK,
		Radius:  opts.Radius,
	}, setupRNG)
	// The naive mapping groups spatially adjacent cones on the same
	// processor (contiguous blocks of a BFS sweep over the region graph),
	// mirroring the paper's mesh-aligned distribution.
	assignContiguous(rg, opts.Procs)
	e := &RRTEngine{
		goal:     goal,
		params:   rrt.Params{Nodes: opts.NodesPerRegion, Step: opts.Step, GoalBias: rrtGoalBias},
		branches: make([]branch, rg.NumRegions()),
	}
	e.constructSalt = saltRRTConstruct
	if goal != nil {
		e.constructSalt = saltConnectConstruct
		widenGoalCone(rg, apex, goal, opts.Radius)
	}
	e.connectorPhase = "repair-bridges"
	e.repairFeedsModel = true
	e.setup(s, opts, rg, e)
	return e, nil
}

// widenGoalCone deterministically widens the cone nearest the goal until
// it contains it. Random radial cones cover direction space only
// approximately (each half-angle is the nearest-ray spacing), so the
// goal's direction can fall in a gap between every cone — and
// RRT-Connect's advantage hinges on exactly one region rooting its
// goal-side tree at the goal.
func widenGoalCone(rg *region.Graph, apex, goal cspace.Config, radius float64) {
	if goal.Dim() != apex.Dim() {
		return
	}
	v := goal.Sub(apex)
	if v.Norm() == 0 || v.Norm() > radius {
		return
	}
	best, bestAngle := -1, math.MaxFloat64
	for i := 0; i < rg.NumRegions(); i++ {
		if a := geom.AngleBetween(v, rg.Region(i).Ray); a < bestAngle {
			best, bestAngle = i, a
		}
	}
	if reg := rg.Region(best); reg.HalfAngle <= bestAngle {
		reg.HalfAngle = bestAngle + 1e-9
	}
}

// Result returns the cumulative result of all committed rounds. The
// returned value is immutable — growth and repair work on round-local
// copies of the branches, so holding a result (or a snapshot built from
// it) is safe while the engine keeps growing and RRT* rewiring keeps
// mutating parents.
func (e *RRTEngine) Result() *RRTResult { return e.res }

// kRays is the number of rays per region the RRT weight estimate casts.
const kRays = 8

// weigh returns one unit per region, priced in round 0 by the k-ray
// probe — under Repartition charging the probe itself, k rays per region
// on the owner, as a "weight" phase — and uniform, stale afterwards: the
// probe is a static workspace property, so later rounds reuse the
// partition it produced unless the observed cost model re-weighs them
// (region costs are temporally autocorrelated, so last rounds'
// measurements are the good estimator the k-ray probe is not).
//
// Unlike PRM there is no balanced-already escape hatch: the k-ray
// estimate CLAIMS imbalance whether or not it is real, which is the
// paper's point. Migration proceeds whenever the estimated loads look
// improvable.
func (e *RRTEngine) weigh(round int, phases *PhaseBreakdown) (estimate, bool) {
	opts, rg := e.opts, e.rg
	n := rg.NumRegions()
	e.rd = &treeRound{grown: make([]branch, n), rewires: make([]int, n), conns: make([]bridgeTry, len(e.pairs)), uf: graph.NewUnionFind(n)}
	for _, br := range e.bridges {
		e.rd.uf.Union(br[0], br[2])
	}

	est := estimate{units: perRegion(n), payload: make([]int, n), fresh: round == 0}
	for i := range est.payload {
		est.payload[i] = e.branches[i].size()
	}
	if !est.fresh {
		return est, true
	}
	if e.s.Dim() == e.s.Env.Dim() {
		est.perUnit = repart.KRayWeights(e.s.Env, rg, kRays, opts.Seed)
	}
	if opts.Strategy == Repartition {
		rayCost := float64(kRays) * opts.Cost.CDObstacle * float64(len(e.s.Env.Obstacles)+1)
		rep := e.pl.replay(phaseSpec{
			name: "weight",
			queues: queuesByOwner(opts.Procs, rg.Owner, n, func(i int) work.Task {
				return record(work.Task{ID: i}, rayCost)
			}),
		})
		if rep.Stopped {
			return est, false
		}
		phases.Redistribution = rep.Makespan
	}
	return est, true
}

// constructTask grows region i toward the round's cumulative node
// target on a round-local copy of its committed branch, so an aborted
// round leaves the branch (and every published result sharing it)
// untouched. A region's first round starts from exactly the one-shot
// planners' state, on the same stream. Stealing the region moves its
// committed branch.
func (e *RRTEngine) constructTask(round, i int) work.Task {
	rd, old := e.rd, e.branches[i]
	params := e.params
	params.Nodes = (round + 1) * e.opts.NodesPerRegion
	return work.Task{
		ID:      i,
		Payload: old.size(),
		Run: func() float64 {
			r := rng.Derive(e.opts.Seed, roundSalt(round, i))
			reg := e.rg.Region(i)
			var w cspace.Counters
			switch {
			case e.goal != nil:
				bi := old.bi
				if bi == nil {
					// Rooting the pair consumes the stream before growth.
					bi, w = rrt.NewBiTree(e.s, reg, e.goal, r)
				} else {
					bi = bi.Copy()
				}
				res := rrt.GrowBiTree(e.s, reg, bi, params, r)
				w.Add(res.Work)
				// Unmet goal-side trees stay out of the merged branch
				// (their nodes cannot reach the root) but keep growing.
				rd.grown[i] = branch{tree: rrt.MergeBiTree(res.Bi), bi: res.Bi}
			default:
				tree := rrt.NewTree(reg.Apex, reg.ID)
				if old.tree != nil {
					tree = old.tree.Copy()
				}
				if e.opts.Star {
					res := rrt.GrowStarTree(e.s, reg, tree, params, r)
					w = res.Work
					rd.rewires[i] = res.Rewires
				} else {
					w = rrt.GrowTree(e.s, reg, tree, params, r).Work
				}
				rd.grown[i] = branch{tree: tree}
			}
			return e.opts.Cost.Time(w)
		},
	}
}

// connectPair attempts a bridge between the two regions' grown branches.
func (e *RRTEngine) connectPair(idx, a, b int) cspace.Counters {
	var c cspace.Counters
	try := &e.rd.conns[idx]
	target := region.ConeTarget(e.rg.Region(b))
	try.ia, try.ib, try.ok = rrt.Connect(e.s, e.rd.grown[a].tree, e.rd.grown[b].tree, target, 3, &c)
	return c
}

// bookPair keeps only bridges that merge distinct components of the
// region-level tree ("if any edge connection creates a cycle, the tree
// is pruned so as to remove the cycle").
func (e *RRTEngine) bookPair(idx, a, b int, _ bool) int {
	rd := e.rd
	if c := rd.conns[idx]; c.ok {
		if rd.uf.Union(a, b) {
			rd.bridges = append(rd.bridges, [4]int{a, c.ia, b, c.ib})
		} else {
			rd.newPruned++
		}
	}
	return 0
}

func (e *RRTEngine) commit(round int, weights, costs []float64) {
	rd := e.rd
	copy(e.branches, rd.grown)
	e.bridges = append(e.bridges, rd.bridges...)
	e.prunedCycles += rd.newPruned
	for _, rw := range rd.rewires {
		e.rewires += rw
	}
	// Correlation between weight estimate and measured cost: round 0
	// (where the static estimate was computed), and every warm round
	// under the observed model (whose whole point is that this
	// correlation is high where the k-ray probe's is not).
	if e.opts.Strategy == Repartition && (round == 0 || e.opts.CostModel == CostObserved) {
		e.weightCorr = metrics.Pearson(weights, costs)
	}
	e.rd = nil
}

func (e *RRTEngine) nodeCount(i int) int {
	if t := e.branches[i].tree; t != nil {
		return t.Len()
	}
	return 0
}

// publish snapshots the committed forest, re-deriving RRT-Connect's
// met/goal summary (a door closing can un-meet the goal region's pair,
// flipping GoalConnected back off).
func (e *RRTEngine) publish(stats RunStats) {
	res := &RRTResult{
		RunStats:         stats,
		Branches:         make([]*rrt.Tree, len(e.branches)),
		Bridges:          e.bridges,
		PrunedCycles:     e.prunedCycles,
		Rewires:          e.rewires,
		WeightActualCorr: e.weightCorr,
	}
	for i, b := range e.branches {
		res.Branches[i] = b.tree
		if b.bi == nil || !b.bi.Met {
			continue
		}
		res.TreesMet++
		if b.bi.B != nil && b.bi.B.Nodes[0].Q.Equal(e.goal, 0) {
			res.GoalConnected = true
		}
	}
	e.res = res
}

// ApplyDelta incrementally repairs the engine's committed branches
// against an environment mutation, between growth rounds: every
// region's tree (both trees of an RRT-Connect pair) prunes the nodes and
// edges the delta blocked, severed subtrees regraft to surviving
// neighbours where a fresh local plan allows, a pair whose meeting node
// died un-meets and resumes growing next round, and cross-region bridges
// whose endpoint died or whose edge is now blocked are dropped (see
// engine.applyDelta for the space, pipeline and cancellation contracts).
//
// Under the observed cost model the repair phase's measured costs feed
// the same per-region EWMA as construction, so the next round's
// repartition sees the mutation's load concentration.
func (e *RRTEngine) ApplyDelta(s *cspace.Space, d env.Delta, stop <-chan struct{}) (RepairStats, error) {
	n := len(e.branches)
	e.rp = &treeRepair{
		pruned: make([]branch, n), remaps: make([][]int, n), sts: make([]RepairStats, n),
		bridges: make([]bridgeCheck, len(e.bridges)),
	}
	st, err := e.applyDelta(s, d, stop)
	e.rp = nil
	return st, err
}

// repairTask prunes a round-local copy of region i's branch, so an abort
// leaves the committed trees untouched.
func (e *RRTEngine) repairTask(s *cspace.Space, dc *cspace.DeltaChecker, i int) work.Task {
	rp, old := e.rp, e.branches[i]
	return work.Task{
		ID:      i,
		Payload: old.size(),
		Run: func() float64 {
			if old.tree == nil {
				return 0
			}
			st := &rp.sts[i]
			switch {
			case old.bi != nil:
				oldLenA := old.bi.A.Len()
				bi := old.bi.Copy()
				var remapA, remapB []int
				remapA, remapB, *st = rrt.PruneBiTree(s, dc, bi, repairGraftK)
				// Translate tree-local remaps into merged-branch ids: A
				// nodes keep their (compacted) ids; B nodes followed at
				// offset lenA and survive only while the pair stays met.
				mr := make([]int, old.tree.Len())
				copy(mr, remapA)
				for j := oldLenA; j < len(mr); j++ {
					mr[j] = -1
					if nb := remapB[j-oldLenA]; bi.Met && nb >= 0 {
						mr[j] = bi.A.Len() + nb
					}
				}
				rp.remaps[i] = mr
				rp.pruned[i] = branch{tree: rrt.MergeBiTree(bi), bi: bi}
			default:
				t := old.tree.Copy()
				rp.remaps[i], *st = rrt.PruneTree(s, dc, t, repairGraftK)
				if e.opts.Star {
					// Compaction leaves the cost vector stale, and regrafted
					// edges need pricing.
					t.RecomputeCost(s)
				}
				rp.pruned[i] = branch{tree: t}
			}
			return e.opts.Cost.Time(st.Work)
		},
	}
}

func (e *RRTEngine) connectors() []int {
	regions := make([]int, len(e.bridges))
	for idx, br := range e.bridges {
		regions[idx] = br[0]
	}
	return regions
}

// recheckConnector re-validates one committed bridge against the
// repaired branches: it survives when both endpoints survived and its
// edge is still free.
func (e *RRTEngine) recheckConnector(dc *cspace.DeltaChecker, idx int) cspace.Counters {
	rp, br := e.rp, e.bridges[idx]
	// survivor maps a bridge endpoint into region r's repaired branch.
	survivor := func(r, node int) (cspace.Config, int) {
		if rm := rp.remaps[r]; rm != nil {
			if node >= len(rm) || rm[node] < 0 {
				return nil, -1
			}
			node = rm[node]
		}
		if t := rp.pruned[r].tree; t != nil {
			return t.Nodes[node].Q, node
		}
		return nil, -1
	}
	qa, na := survivor(br[0], br[1])
	qb, nb := survivor(br[2], br[3])
	if na < 0 || nb < 0 {
		return cspace.Counters{}
	}
	out := &rp.bridges[idx]
	out.at, out.keep = [4]int{br[0], na, br[2], nb}, true
	if dc.EdgeAffected(qa, qb) {
		out.CheckedEdges = 1
		out.keep = dc.EdgeStillFree(qa, qb, &out.Work)
	}
	return out.Work
}

func (e *RRTEngine) commitRepair(st *RepairStats) {
	rp := e.rp
	for i, ps := range rp.sts {
		st.Add(ps)
		if rp.pruned[i].tree != nil {
			e.branches[i] = rp.pruned[i]
		}
	}
	var kept [][4]int
	for _, br := range rp.bridges {
		st.Add(br.RepairStats)
		if br.keep {
			kept = append(kept, br.at)
		}
	}
	st.RemovedEdges += len(e.bridges) - len(kept)
	e.bridges = kept
}

// assignContiguous partitions regions into equal-count contiguous chunks
// of a BFS sweep over the region graph.
func assignContiguous(rg *region.Graph, procs int) {
	n := rg.NumRegions()
	for rank, ri := range rg.SweepOrder() {
		owner := rank * procs / n
		if owner >= procs {
			owner = procs - 1
		}
		rg.Owner[ri] = owner
	}
}

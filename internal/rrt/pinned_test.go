package rrt

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// pinnedGrowth is what TestGrowthPinned holds fixed for one tree: its
// node count, parent vector, a hash of every node's coordinate bits, the
// iterations consumed and the full work counters.
type pinnedGrowth struct {
	nodes   int
	parents []int
	qHash   uint64
	iters   int
	work    cspace.Counters
}

func pinTree(t *Tree, iters int, w cspace.Counters) pinnedGrowth {
	h := fnv.New64a()
	var b [8]byte
	p := pinnedGrowth{nodes: t.Len(), iters: iters, work: w}
	for _, n := range t.Nodes {
		p.parents = append(p.parents, n.Parent)
		for _, x := range n.Q {
			u := math.Float64bits(x)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	p.qHash = h.Sum64()
	return p
}

func checkPinned(t *testing.T, name string, got, want pinnedGrowth) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: growth moved\n got  %#v\n want %#v", name, got, want)
	}
}

// wantGrowth was read at the parent of the one-extension-step change
// (four written-out extension loops, two tree types) and must not move.
var wantGrowth = map[string]pinnedGrowth{
	"tree-1": {12, []int{-1, 0, 1, 2, 3, 4, 2, 6, 4, 1, 5, 6}, 0x41dbd3697e64f2d6, 38,
		cspace.Counters{CDCalls: 186, CDObstacle: 256, LPSteps: 150, LPCalls: 16, KNNQueries: 38, KNNEvals: 275, Samples: 38}},
	"tree-2": {24, []int{-1, 0, 1, 2, 3, 4, 2, 6, 4, 1, 5, 6, 10, 12, 12, 13, 10, 15, 12, 13, 18, 15, 6, 3}, 0xa55eae39675bf483, 17,
		cspace.Counters{CDCalls: 90, CDObstacle: 163, LPSteps: 73, LPCalls: 12, KNNQueries: 17, KNNEvals: 303, Samples: 17}},
	"dubins": {11, []int{-1, 0, 1, 2, 3, 3, 5, 6, 3, 3, 2}, 0xff16881722d87582, 480,
		cspace.Counters{CDCalls: 855, CDObstacle: 2964, LPSteps: 375, LPCalls: 264, KNNQueries: 480, KNNEvals: 4017, Samples: 480}},
	"met-A": {15, []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 4, 8, 10, 8, 11, 13}, 0x50fd65e43e13b05b, 20,
		cspace.Counters{CDCalls: 169, CDObstacle: 285, LPSteps: 124, LPCalls: 26, KNNQueries: 35, KNNEvals: 257, Samples: 44}},
	"met-B": {12, []int{-1, 0, 1, 1, 3, 1, 1, 5, 6, 8, 9, 10}, 0x45644bd5f350013, 0, cspace.Counters{}},
	"unmet-A": {3, []int{-1, 0, 0}, 0x594cbf4d67191b1d, 34,
		cspace.Counters{CDCalls: 129, CDObstacle: 35641, LPSteps: 72, LPCalls: 28, KNNQueries: 52, KNNEvals: 312, Samples: 56}},
	"unmet-B": {21, []int{-1, 0, 1, 2, 3, 3, 1, 3, 7, 2, 0, 9, 1, 0, 4, 8, 0, 3, 14, 5, 14}, 0x36665dcf4615d72e, 0, cspace.Counters{}},
	"star": {32, []int{-1, 0, 0, 0, 30, 30, 13, 27, 28, 13, 13, 4, 28, 1, 13, 7, 14, 10, 31, 5, 0, 31, 18, 10, 28, 4, 6, 2, 1, 5, 0, 28}, 0xef31f82e312a71c5, 33,
		cspace.Counters{CDCalls: 523, CDObstacle: 210246, LPSteps: 490, LPCalls: 102, KNNQueries: 33, KNNEvals: 995, Samples: 33}},
}

// TestGrowthPinned pins, on fixed (environment, cone, seed) triples, the
// trees GrowTree, GrowBiTree and GrowStarTree build and the work they
// bill: node count, parent vector, node coordinates (hashed bit for bit),
// iterations and the full Counters. The RNG draws decide the tree and
// the Counters are what the simulator charges the region's task, so a
// refactor that shifts any of them has changed the reproduction's load,
// not just its code.
func TestGrowthPinned(t *testing.T) {
	// GrowTree: a cone aimed at the med-cube obstacle with a long step, so
	// bounds / cone, validity and local-plan rejections all occur; grown in
	// two rounds so the resume path is covered.
	mc := cspace.NewPointSpace(env.MedCube())
	reg := coneRegion(3, geom.V(1, 0.6, 0.2), geom.V(0.1, 0.1, 0.1), 0.9, 0.5)
	first := GrowTree(mc, reg, NewTree(reg.Apex, reg.ID), Params{Nodes: 12, Step: 0.2, GoalBias: 0.1}, rng.Derive(11, 3))
	checkPinned(t, "GrowTree/med-cube round 1", pinTree(first.Tree, first.Iters, first.Work), wantGrowth["tree-1"])
	res := GrowTree(mc, reg, first.Tree, Params{Nodes: 24, Step: 0.2, GoalBias: 0.1}, rng.Derive(12, 3))
	checkPinned(t, "GrowTree/med-cube round 2", pinTree(res.Tree, res.Iters, res.Work), wantGrowth["tree-2"])

	// GrowTree on a steered space: the cone is a sampling bias only.
	p := Params{Nodes: 24, Step: 0.05, GoalBias: 0.1}
	ds := cspace.NewDubinsSpace(env.Maze2D(4, 0.2), 0.06)
	dreg := coneRegion(1, geom.V(1, 0.3, 0.1), geom.V(0.15, 0.15, 0), 1.2, 0.7)
	dres := GrowTree(ds, dreg, NewTree(dreg.Apex, dreg.ID), p, rng.Derive(21, 1))
	checkPinned(t, "GrowTree/dubins", pinTree(dres.Tree, dres.Iters, dres.Work), wantGrowth["dubins"])

	// GrowBiTree, a pair that meets around the med-cube obstacle after a
	// few alternations...
	mreg := coneRegion(2, geom.V(1, 0.4, 0.3), geom.V(0.1, 0.1, 0.1), 1.0, 0.6)
	bi, bw := NewBiTree(mc, mreg, nil, rng.Derive(5, 0))
	bres := GrowBiTree(mc, mreg, bi, Params{Nodes: 120, Step: 0.08, GoalBias: 0.1}, rng.Derive(5, 1))
	bres.Work.Add(bw)
	if !bi.Met || bi.AMeet != 14 || bi.BMeet != 11 {
		t.Errorf("GrowBiTree/met: met %v at A %d / B %d, want true at 14 / 11", bi.Met, bi.AMeet, bi.BMeet)
	}
	checkPinned(t, "GrowBiTree/met A", pinTree(bi.A, bres.Iters, bres.Work), wantGrowth["met-A"])
	checkPinned(t, "GrowBiTree/met B", pinTree(bi.B, 0, cspace.Counters{}), wantGrowth["met-B"])

	// ...and one that does not within its budget (cluttered space), so
	// connectGreedy's trapped exits are covered.
	s := cspace.NewPointSpace(env.Mixed30())
	ureg := coneRegion(2, geom.V(1, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	ubi, uw := NewBiTree(s, ureg, nil, rng.Derive(31, 0))
	ures := GrowBiTree(s, ureg, ubi, p, rng.Derive(31, 1))
	ures.Work.Add(uw)
	if ubi.Met || ubi.B == nil {
		t.Fatalf("the cluttered pair must stay unmet with a goal-side tree (met %v)", ubi.Met)
	}
	checkPinned(t, "GrowBiTree/unmet A", pinTree(ubi.A, ures.Iters, ures.Work), wantGrowth["unmet-A"])
	checkPinned(t, "GrowBiTree/unmet B", pinTree(ubi.B, 0, cspace.Counters{}), wantGrowth["unmet-B"])

	// GrowStarTree: choose-parent and rewiring on top of the extension.
	sreg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.7)
	sres := GrowStarTree(s, sreg, freshStar(sreg), Params{Nodes: 32, Step: 0.05, GoalBias: 0.1}, rng.New(4))
	checkPinned(t, "GrowStarTree", pinTree(&Tree{Nodes: sres.Tree.Nodes}, sres.Iters, sres.Work), wantGrowth["star"])
	var costSum float64
	for _, c := range sres.Tree.Cost {
		costSum += c
	}
	if sres.Rewires != 12 || costSum != 8.003067420143068 {
		t.Errorf("GrowStarTree: %d rewires, cost-to-root sum %v, want 12 and 8.003067420143068", sres.Rewires, costSum)
	}
}

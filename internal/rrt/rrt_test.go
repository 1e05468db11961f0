package rrt

import (
	"math"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/region"
	"parmp/internal/rng"
)

func coneRegion(id int, dir geom.Vec, apex geom.Vec, radius, half float64) *region.Region {
	return &region.Region{
		ID: id, Kind: region.KindCone,
		Ray: dir.Unit(), Apex: apex, Radius: radius, HalfAngle: half,
	}
}

func TestGrowRegionFreeSpace(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	res := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}, rng.New(1))
	if res.Tree.Len() != 40 {
		t.Fatalf("tree size = %d, want 40", res.Tree.Len())
	}
	// All nodes must be in the cone and collision-free.
	for i, n := range res.Tree.Nodes {
		if i == 0 {
			continue
		}
		if !region.InCone(reg, n.Q) {
			t.Fatalf("node %d at %v escaped cone", i, n.Q)
		}
		if !s.Valid(n.Q, nil) {
			t.Fatalf("node %d invalid", i)
		}
		if n.Parent < 0 || n.Parent >= i {
			t.Fatalf("node %d has bad parent %d", i, n.Parent)
		}
	}
	if res.Work.CDCalls == 0 || res.Work.LPCalls == 0 {
		t.Fatalf("work not metered: %+v", res.Work)
	}
}

func TestGrowRegionDeterministic(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(3, geom.V(0, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.5)
	p := Params{Nodes: 25, Step: 0.05, GoalBias: 0.1}
	a := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.Derive(11, 3))
	b := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.Derive(11, 3))
	if a.Tree.Len() != b.Tree.Len() || a.Work != b.Work || a.Iters != b.Iters {
		t.Fatal("identical seeds should replay identically")
	}
	for i := range a.Tree.Nodes {
		if !a.Tree.Nodes[i].Q.Equal(b.Tree.Nodes[i].Q, 0) {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestGrowRegionStepBound(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	p := Params{Nodes: 30, Step: 0.04, GoalBias: 0.2}
	res := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.New(2))
	for i := 1; i < res.Tree.Len(); i++ {
		n := res.Tree.Nodes[i]
		d := s.Distance(n.Q, res.Tree.Nodes[n.Parent].Q)
		if d > p.Step+1e-9 {
			t.Fatalf("edge %d length %v exceeds step %v", i, d, p.Step)
		}
	}
}

func TestGrowRegionBlockedDirectionCostsMore(t *testing.T) {
	// Growing toward the obstacle costs more iterations/work per node
	// than growing into free space — the estimation difficulty at the
	// heart of the paper's RRT result.
	e := env.MedCube()
	s := cspace.NewPointSpace(e)
	apex := geom.V(0.1, 0.1, 0.1)
	toward := coneRegion(0, geom.V(1, 1, 1), apex, 1.0, 0.35)
	away := coneRegion(1, geom.V(-1, -1, -1).Unit(), apex.Clone(), 0.15, 0.35)
	p := Params{Nodes: 30, Step: 0.04, GoalBias: 0.1}
	rt := GrowTree(s, toward, NewTree(toward.Apex, toward.ID), p, rng.Derive(5, 0))
	ra := GrowTree(s, away, NewTree(away.Apex, away.ID), p, rng.Derive(5, 1))
	if rt.Tree.Len() < 2 || ra.Tree.Len() < 2 {
		t.Fatalf("trees too small: %d %d", rt.Tree.Len(), ra.Tree.Len())
	}
	wt := float64(rt.Work.CDObstacle) / float64(rt.Tree.Len())
	wa := float64(ra.Work.CDObstacle) / float64(ra.Tree.Len())
	if wt <= wa {
		t.Fatalf("blocked-direction per-node work %v should exceed open %v", wt, wa)
	}
}

func TestPathToRoot(t *testing.T) {
	tr := NewTree(geom.V(0, 0), 0)
	tr.Nodes = append(tr.Nodes, Node{Q: geom.V(0.1, 0), Parent: 0})
	tr.Nodes = append(tr.Nodes, Node{Q: geom.V(0.2, 0), Parent: 1})
	path := tr.PathToRoot(2)
	want := []int{2, 1, 0}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
}

func TestConnectAdjacentBranches(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	apex := geom.V(0.5, 0.5, 0.5)
	a := coneRegion(0, geom.V(1, 0, 0), apex, 0.45, 0.7)
	b := coneRegion(1, geom.V(math.Cos(0.8), math.Sin(0.8), 0), apex.Clone(), 0.45, 0.7)
	p := Params{Nodes: 40, Step: 0.05, GoalBias: 0.15}
	ra := GrowTree(s, a, NewTree(a.Apex, a.ID), p, rng.Derive(9, 0))
	rb := GrowTree(s, b, NewTree(b.Apex, b.ID), p, rng.Derive(9, 1))
	var c cspace.Counters
	ia, ib, ok := Connect(s, ra.Tree, rb.Tree, region.ConeTarget(b), 5, &c)
	if !ok {
		t.Fatal("adjacent free-space branches should connect")
	}
	if ia >= ra.Tree.Len() || ib >= rb.Tree.Len() {
		t.Fatalf("bridge indices out of range: %d %d", ia, ib)
	}
	if !s.LocalPlan(ra.Tree.Nodes[ia].Q, rb.Tree.Nodes[ib].Q, nil) {
		t.Fatal("bridge must be plannable")
	}
	if c.LPCalls == 0 {
		t.Fatal("connect work not metered")
	}
}

func TestConnectEmptyTree(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	a := NewTree(geom.V(0.5, 0.5, 0.5), 0)
	empty := &Tree{}
	if _, _, ok := Connect(s, a, empty, geom.V(1, 1, 1), 3, nil); ok {
		t.Fatal("empty tree should not connect")
	}
}

func TestGrowRegionRespectsMaxIters(t *testing.T) {
	// A cone pointing into the obstacle terminates on its iteration
	// budget, 20 tries per requested node, short of its node target.
	e := env.MedCube()
	s := cspace.NewPointSpace(e)
	apex := geom.V(0.5, 0.5, 0.05)
	reg := coneRegion(0, geom.V(0, 0, 1), apex, 0.9, 0.1)
	res := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), Params{Nodes: 25, Step: 0.05}, rng.New(3))
	if res.Iters != 500 || res.Tree.Len() >= 25 {
		t.Fatalf("iters = %d, nodes = %d: want the 500-iteration budget spent short of 25 nodes", res.Iters, res.Tree.Len())
	}
}

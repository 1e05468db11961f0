package rrt

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
)

// chainTree builds a deterministic path tree: root at start, each node
// the child of the previous, stepping dx along x.
func chainTree(start geom.Vec, n int, dx float64) *Tree {
	t := NewTree(start, 0)
	for i := 1; i < n; i++ {
		q := start.Clone()
		q[0] += float64(i) * dx
		t.Nodes = append(t.Nodes, Node{Q: q, Parent: i - 1})
	}
	return t
}

// checkTreeInvariants asserts the structural contract every engine
// relies on: node 0 is the root (Parent -1) and parents precede
// children.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.Len() == 0 || tr.Nodes[0].Parent != -1 {
		t.Fatalf("root invariant broken: len=%d", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		p := tr.Nodes[i].Parent
		if p < 0 || p >= i {
			t.Fatalf("node %d has parent %d (want 0 <= p < %d)", i, p, i)
		}
	}
}

func TestPruneTreeSeversUnreachableSubtree(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	tr := chainTree(geom.V(0.1, 0.5, 0.5), 15, 0.05) // x from 0.10 to 0.80

	mutated := base.Clone()
	// A full-height wall at x ∈ [0.40, 0.44] cuts the chain: nodes inside
	// die, and the frontier beyond cannot regraft (any plan back to the
	// surviving prefix must cross the wall).
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.40, 0, 0, 0.44, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	after := s.WithEnv(mutated)
	dc := cspace.NewDeltaChecker(s, d)
	remap, st := PruneTree(after, dc, tr, 3)

	checkTreeInvariants(t, tr)
	if st.RemovedNodes == 0 || st.Grafted != 0 {
		t.Fatalf("removed=%d grafted=%d, want removals and no grafts", st.RemovedNodes, st.Grafted)
	}
	// Everything surviving must be valid, with a valid parent edge, in
	// the mutated world.
	for i, nd := range tr.Nodes {
		if !after.Valid(nd.Q, nil) {
			t.Fatalf("surviving node %d is blocked", i)
		}
		if nd.Parent >= 0 && !after.LocalPlan(tr.Nodes[nd.Parent].Q, nd.Q, nil) {
			t.Fatalf("surviving edge %d→%d is blocked", nd.Parent, i)
		}
	}
	// Only the prefix before the wall can survive, and the remap reflects
	// exactly that.
	for old, nw := range remap {
		x := 0.1 + float64(old)*0.05
		if x < 0.40-1e-9 {
			if nw < 0 {
				t.Fatalf("node %d (x=%.2f) before the wall was pruned", old, x)
			}
			if got := tr.Nodes[nw].Q[0]; got != x {
				t.Fatalf("remap[%d]=%d points at x=%.2f, want %.2f", old, nw, got, x)
			}
		} else if nw >= 0 {
			t.Fatalf("node %d (x=%.2f) at or past the wall survived", old, x)
		}
	}
}

func TestPruneTreeRegraftsFrontier(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	// Root with two children; one child dies but its own child can
	// re-route through the surviving sibling.
	tr := NewTree(geom.V(0.5, 0.5, 0.5), 0)
	tr.Nodes = append(tr.Nodes,
		Node{Q: geom.V(0.5, 0.6, 0.5), Parent: 0}, // 1: survives
		Node{Q: geom.V(0.6, 0.5, 0.5), Parent: 0}, // 2: dies (inside sphere)
		Node{Q: geom.V(0.6, 0.6, 0.5), Parent: 2}, // 3: severed frontier, graftable
		Node{Q: geom.V(0.7, 0.6, 0.5), Parent: 3}, // 4: saved by 3's graft
	)

	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.SphereObstacle{Center: geom.V(0.6, 0.5, 0.5), Radius: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	after := s.WithEnv(mutated)
	dc := cspace.NewDeltaChecker(s, d)
	remap, st := PruneTree(after, dc, tr, 3)

	checkTreeInvariants(t, tr)
	if st.RemovedNodes != 1 {
		t.Fatalf("removed %d nodes, want exactly the blocked one", st.RemovedNodes)
	}
	if st.Grafted != 1 {
		t.Fatalf("grafted %d frontiers, want 1", st.Grafted)
	}
	if remap[2] != -1 {
		t.Fatal("blocked node survived")
	}
	for _, old := range []int{0, 1, 3, 4} {
		if remap[old] < 0 {
			t.Fatalf("node %d pruned, want saved", old)
		}
	}
	// The frontier's new parent must be a surviving node with a valid
	// edge — and with the geometry above, the nearest candidate is the
	// sibling at (0.5, 0.6, 0.5).
	g := tr.Nodes[remap[3]]
	if g.Parent != remap[1] {
		t.Fatalf("frontier regrafted to new index %d, want sibling %d", g.Parent, remap[1])
	}
	if !after.LocalPlan(tr.Nodes[g.Parent].Q, g.Q, nil) {
		t.Fatal("grafted edge is blocked")
	}
	// The saved descendant still hangs below the frontier.
	if tr.Nodes[remap[4]].Parent != remap[3] {
		t.Fatal("descendant lost its parent under compaction")
	}
}

func TestPruneTreeNonInvalidatingIsIdentity(t *testing.T) {
	base := env.MedCube()
	s := cspace.NewPointSpace(base)
	tr := chainTree(geom.V(0.05, 0.05, 0.05), 5, 0.02)
	before := append([]Node(nil), tr.Nodes...)

	mutated := base.Clone()
	d, err := mutated.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s.WithEnv(mutated), d)
	remap, st := PruneTree(s.WithEnv(mutated), dc, tr, 3)
	if st.RemovedNodes != 0 || st.CheckedNodes != 0 || st.CheckedEdges != 0 {
		t.Fatalf("removal-only prune did work: %+v", st)
	}
	for i, nw := range remap {
		if nw != i {
			t.Fatalf("remap[%d]=%d, want identity", i, nw)
		}
	}
	if len(tr.Nodes) != len(before) {
		t.Fatal("removal-only prune changed the tree")
	}
}

func TestPruneBiTreeMeetState(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	build := func() *BiTree {
		a := chainTree(geom.V(0.1, 0.5, 0.5), 4, 0.05)  // x 0.10..0.25
		b := chainTree(geom.V(0.9, 0.5, 0.5), 4, -0.05) // x 0.90..0.75
		return &BiTree{A: a, B: b, Met: true, AMeet: 3, BMeet: 3}
	}

	// Delta far from both trees: meet survives, indices unchanged.
	bi := build()
	far := base.Clone()
	dFar, err := far.AddObstacle(env.SphereObstacle{Center: geom.V(0.5, 0.1, 0.1), Radius: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := PruneBiTree(s.WithEnv(far), cspace.NewDeltaChecker(s, dFar), bi, 3)
	if !bi.Met || bi.AMeet != 3 || bi.BMeet != 3 || st.RemovedNodes != 0 {
		t.Fatalf("benign delta disturbed the pair: met=%v meet=(%d,%d) removed=%d",
			bi.Met, bi.AMeet, bi.BMeet, st.RemovedNodes)
	}

	// Delta on top of B's meet node: the bridge is gone.
	bi = build()
	hit := base.Clone()
	dHit, err := hit.AddObstacle(env.SphereObstacle{Center: geom.V(0.75, 0.5, 0.5), Radius: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	_, remapB, _ := PruneBiTree(s.WithEnv(hit), cspace.NewDeltaChecker(s, dHit), bi, 3)
	if remapB[3] != -1 {
		t.Fatal("B's meet node should have died")
	}
	if bi.Met {
		t.Fatal("pair still met after losing a meeting node")
	}
	checkTreeInvariants(t, bi.A)
	checkTreeInvariants(t, bi.B)
}

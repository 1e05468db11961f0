package prm

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/rng"
)

func freeSpace() *cspace.Space { return cspace.NewPointSpace(env.Free()) }

// regionResult is one region planned start to finish.
type regionResult struct {
	Nodes []Node          // free configurations generated in the region
	Edges [][2]int        // local indices into Nodes
	Work  cspace.Counters // work performed
}

// buildRegion plans one region as an engine's first round does:
// SampleRegion in box, then ConnectRegionIncremental over every node.
func buildRegion(s *cspace.Space, box geom.AABB, regionID int, p Params, r *rng.Stream) regionResult {
	var res regionResult
	res.Nodes, res.Work = SampleRegion(s, box, regionID, p, r)
	edges, connectWork := ConnectRegionIncremental(s, res.Nodes, 0, p)
	res.Edges = edges
	res.Work.Add(connectWork)
	return res
}

func TestBuildRegionGeneratesNodes(t *testing.T) {
	s := freeSpace()
	box := geom.Box3(0, 0, 0, 0.5, 0.5, 0.5)
	res := buildRegion(s, box, 3, Params{SamplesPerRegion: 50, K: 5}, rng.New(1))
	if len(res.Nodes) != 50 {
		t.Fatalf("nodes = %d, want 50 in free space", len(res.Nodes))
	}
	for _, n := range res.Nodes {
		if !box.Contains(n.Q) {
			t.Fatalf("node %v outside region box", n.Q)
		}
		if n.Region != 3 {
			t.Fatalf("node region = %d", n.Region)
		}
	}
	if len(res.Edges) == 0 {
		t.Fatal("free-space region should produce edges")
	}
	if res.Work.Samples != 50 || res.Work.CDCalls == 0 || res.Work.LPCalls == 0 {
		t.Fatalf("work counters look wrong: %+v", res.Work)
	}
}

func TestBuildRegionDeterministic(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	p := Params{SamplesPerRegion: 30, K: 4}
	a := buildRegion(s, box, 0, p, rng.Derive(7, 0))
	b := buildRegion(s, box, 0, p, rng.Derive(7, 0))
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatal("identical seeds should give identical results")
	}
	for i := range a.Nodes {
		if !a.Nodes[i].Q.Equal(b.Nodes[i].Q, 0) {
			t.Fatal("node mismatch under identical seed")
		}
	}
	if a.Work != b.Work {
		t.Fatalf("work mismatch: %+v vs %+v", a.Work, b.Work)
	}
}

func TestBuildRegionBlockedRegion(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	// Entirely inside the obstacle.
	box := geom.Box3(0.3, 0.3, 0.3, 0.7, 0.7, 0.7)
	res := buildRegion(s, box, 0, Params{SamplesPerRegion: 10, K: 3}, rng.New(2))
	if len(res.Nodes) != 0 {
		t.Fatalf("blocked region produced %d nodes", len(res.Nodes))
	}
	if res.Work.CDCalls == 0 {
		t.Fatal("failed sampling still costs collision checks")
	}
}

func TestBuildRegionEdgesValid(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	res := buildRegion(s, box, 0, Params{SamplesPerRegion: 40, K: 5}, rng.New(3))
	for _, e := range res.Edges {
		if e[0] < 0 || e[0] >= len(res.Nodes) || e[1] < 0 || e[1] >= len(res.Nodes) || e[0] == e[1] {
			t.Fatalf("edge %v out of range", e)
		}
		// Edge endpoints must be locally plannable (re-check).
		if !s.LocalPlan(res.Nodes[e[0]].Q, res.Nodes[e[1]].Q, nil) {
			t.Fatalf("edge %v not plannable", e)
		}
	}
}

func TestWorkHeterogeneity(t *testing.T) {
	// A cluttered region must cost more collision work per produced node
	// than an open one — the root cause of the paper's load imbalance.
	e := env.MedCube()
	s := cspace.NewPointSpace(e)
	open := geom.Box3(0, 0, 0, 0.15, 0.15, 0.15)
	clutter := geom.Box3(0.15, 0.15, 0.15, 0.85, 0.85, 0.85) // mostly obstacle
	p := Params{SamplesPerRegion: 30, K: 4}
	ro := buildRegion(s, open, 0, p, rng.New(4))
	rc := buildRegion(s, clutter, 1, p, rng.New(4))
	if len(ro.Nodes) == 0 || len(rc.Nodes) == 0 {
		t.Fatal("both regions should produce some nodes")
	}
	perNodeOpen := float64(ro.Work.CDCalls) / float64(len(ro.Nodes))
	perNodeClutter := float64(rc.Work.CDCalls) / float64(len(rc.Nodes))
	if perNodeClutter <= perNodeOpen {
		t.Fatalf("cluttered per-node cost %v should exceed open %v", perNodeClutter, perNodeOpen)
	}
}

func TestConnectBoundary(t *testing.T) {
	s := freeSpace()
	p := Params{SamplesPerRegion: 20, K: 3}
	a := buildRegion(s, geom.Box3(0, 0, 0, 0.5, 1, 1), 0, p, rng.Derive(5, 0))
	b := buildRegion(s, geom.Box3(0.5, 0, 0, 1, 1, 1), 1, p, rng.Derive(5, 1))
	res := ConnectBoundary(s, a.Nodes, b.Nodes, 3, 0)
	if len(res.Edges) == 0 {
		t.Fatal("adjacent free regions should connect")
	}
	if res.Attempts < len(res.Edges) {
		t.Fatalf("attempts %d < edges %d", res.Attempts, len(res.Edges))
	}
	for _, e := range res.Edges {
		if e[0] >= len(a.Nodes) || e[1] >= len(b.Nodes) {
			t.Fatalf("edge %v out of range", e)
		}
	}
}

func TestConnectBoundaryEmpty(t *testing.T) {
	s := freeSpace()
	res := ConnectBoundary(s, nil, nil, 3, 0)
	if len(res.Edges) != 0 || res.Attempts != 0 {
		t.Fatal("empty inputs should do nothing")
	}
}

func TestConnectBoundaryBlockedWall(t *testing.T) {
	// A full wall between the regions: no connections possible.
	e := &env.Environment{
		Name:   "solid-wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)},
		},
	}
	s := cspace.NewPointSpace(e)
	p := Params{SamplesPerRegion: 15, K: 3}
	a := buildRegion(s, geom.Box3(0, 0, 0, 0.45, 1, 1), 0, p, rng.Derive(6, 0))
	b := buildRegion(s, geom.Box3(0.55, 0, 0, 1, 1, 1), 1, p, rng.Derive(6, 1))
	res := ConnectBoundary(s, a.Nodes, b.Nodes, 3, 0)
	if len(res.Edges) != 0 {
		t.Fatalf("wall-separated regions connected %d times", len(res.Edges))
	}
}

// roadmapOf builds the roadmap of nodes and edges, in order, each edge
// weighing s.Distance between its ends.
func roadmapOf(s *cspace.Space, nodes []Node, edges [][2]int) *Roadmap {
	w := make([]float64, len(edges))
	for i, e := range edges {
		w[i] = s.Distance(nodes[e[0]].Q, nodes[e[1]].Q)
	}
	return &Roadmap{G: graph.FromSpans(nodes, []graph.EdgeSpan{{Ends: edges, Weights: w}})}
}

func TestQueryFindsPath(t *testing.T) {
	s := freeSpace()
	res := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: 60, K: 6}, rng.New(7))
	m := roadmapOf(s, res.Nodes, res.Edges)
	var c cspace.Counters
	path, ok := BuildIndex(m).Query(s, geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.95, 0.95), 5, &c)
	if !ok {
		t.Fatal("query in free space should succeed")
	}
	if len(path) < 2 {
		t.Fatalf("path too short: %d", len(path))
	}
	if !path[0].Equal(geom.V(0.05, 0.05, 0.05), 1e-12) {
		t.Fatal("path must start at start")
	}
	if !path[len(path)-1].Equal(geom.V(0.95, 0.95, 0.95), 1e-12) {
		t.Fatal("path must end at goal")
	}
	// Every hop must be a valid local plan.
	for i := 0; i+1 < len(path); i++ {
		if !s.LocalPlan(path[i], path[i+1], nil) {
			t.Fatalf("path hop %d invalid", i)
		}
	}
}

func TestQueryInvalidEndpoints(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	m := roadmapOf(s, []Node{{Q: geom.V(0.05, 0.05, 0.05)}}, nil)
	if _, ok := BuildIndex(m).Query(s, geom.V(0.5, 0.5, 0.5), geom.V(0.05, 0.05, 0.05), 2, nil); ok {
		t.Fatal("start inside obstacle must fail")
	}
}

func TestQueryDisconnected(t *testing.T) {
	// Roadmap with two far nodes and no edges; start near one, goal near
	// the other but local planner blocked by wall.
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)},
		},
	}
	s := cspace.NewPointSpace(e)
	m := roadmapOf(s, []Node{{Q: geom.V(0.1, 0.5, 0.5)}, {Q: geom.V(0.9, 0.5, 0.5)}}, nil)
	if _, ok := BuildIndex(m).Query(s, geom.V(0.05, 0.5, 0.5), geom.V(0.95, 0.5, 0.5), 1, nil); ok {
		t.Fatal("wall-separated query must fail")
	}
}

// The reference Query searches a graph of its own, built from the
// roadmap it is given and the two attachments; the parity oracle in
// index_test.go shares that roadmap with the Index under test, so Query
// must hand it back unchanged.
func TestQueryDoesNotMutateRoadmap(t *testing.T) {
	s := freeSpace()
	res := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: 40, K: 5}, rng.New(21))
	m := roadmapOf(s, res.Nodes, res.Edges)
	nodes, edges := m.NumNodes(), m.NumEdges()
	for i := 0; i < 5; i++ {
		Query(s, m, geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), 4, nil)
	}
	if m.NumNodes() != nodes || m.NumEdges() != edges {
		t.Fatalf("query mutated roadmap: %d/%d -> %d/%d", nodes, edges, m.NumNodes(), m.NumEdges())
	}
}

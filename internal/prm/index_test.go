package prm

import (
	"fmt"
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/rng"
)

// buildTestRoadmap assembles a roadmap from one buildRegion pass.
func buildTestRoadmap(t testing.TB, s *cspace.Space, samples int, seed uint64) *Roadmap {
	t.Helper()
	res := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: samples, K: 6}, rng.New(seed))
	return roadmapOf(s, res.Nodes, res.Edges)
}

func TestIndexQueryFindsValidPath(t *testing.T) {
	s := freeSpace()
	m := buildTestRoadmap(t, s, 60, 7)
	ix := BuildIndex(m)
	if ix.NumNodes() != m.NumNodes() {
		t.Fatalf("index has %d nodes for %d roadmap nodes", ix.NumNodes(), m.NumNodes())
	}
	start, goal := geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.95, 0.95)
	var c cspace.Counters
	path, ok := ix.Query(s, start, goal, 5, &c)
	if !ok {
		t.Fatal("query in free space should succeed")
	}
	if !path[0].Equal(start, 1e-12) || !path[len(path)-1].Equal(goal, 1e-12) {
		t.Fatal("path must run start to goal")
	}
	for i := 0; i+1 < len(path); i++ {
		if !s.LocalPlan(path[i], path[i+1], nil) {
			t.Fatalf("path hop %d invalid", i)
		}
	}
	if c.KNNQueries == 0 {
		t.Fatal("query work not metered")
	}
}

// weightedSpace is med-cube with a non-uniform metric: two dimensions
// count for less than their raw length, so the raw Euclidean distance
// overestimates s.Distance and is not an admissible heuristic here.
func weightedSpace() *cspace.Space {
	s := cspace.NewPointSpace(env.MedCube())
	s.Weights = []float64{1, 0.2, 0.5}
	return s
}

// checkAgainstReference holds one Index.Query answer against the
// reference Query (transient vertices + graph.ShortestPath, no code
// shared with the index): same ok, equal total length, exact endpoints,
// every hop a valid local plan.
func checkAgainstReference(t *testing.T, tag string, s *cspace.Space, m *Roadmap, start, goal cspace.Config, k int, got []cspace.Config, ok bool) {
	t.Helper()
	ref, refOK := Query(s, m, start, goal, k, nil)
	if ok != refOK {
		t.Fatalf("%s: index ok=%v, reference ok=%v", tag, ok, refOK)
	}
	if !ok {
		if got != nil {
			t.Fatalf("%s: missed query returned a path", tag)
		}
		return
	}
	if !got[0].Equal(start, 0) || !got[len(got)-1].Equal(goal, 0) {
		t.Fatalf("%s: path endpoints are not the query's", tag)
	}
	for h := 0; h+1 < len(got); h++ {
		if !s.LocalPlan(got[h], got[h+1], nil) {
			t.Fatalf("%s: hop %d invalid", tag, h)
		}
	}
	if d := pathLength(s, got) - pathLength(s, ref); d > 1e-9 || d < -1e-9 {
		t.Fatalf("%s: index length %.12f, reference %.12f", tag, pathLength(s, got), pathLength(s, ref))
	}
}

func TestIndexQueryMatchesLegacyQuery(t *testing.T) {
	// Property: over random roadmaps, spaces, endpoints and k, the index
	// returns a path exactly when the reference does, and an optimal one.
	// The weighted space is the case that catches a heuristic measured in
	// anything but s.Distance.
	spaces := []struct {
		name  string
		space *cspace.Space
	}{
		{"free", freeSpace()},
		{"med-cube", cspace.NewPointSpace(env.MedCube())},
		{"weighted", weightedSpace()},
	}
	for _, tc := range spaces {
		for seed := uint64(1); seed <= 3; seed++ {
			m := buildTestRoadmap(t, tc.space, 40+30*int(seed), seed)
			ix := BuildIndex(m)
			r := rng.New(100 + seed)
			center := geom.V(0.5, 0.5, 0.5) // inside med-cube's obstacle
			for q := 0; q < 12; q++ {
				start, goal := randomValid(tc.space, r), randomValid(tc.space, r)
				switch q % 6 {
				case 3:
					goal = start // duplicate endpoints
				case 4:
					start = center // invalid wherever there is an obstacle
				case 5:
					goal = m.G.Vertex(0).Q // an endpoint that is a roadmap node
				}
				for _, k := range []int{1, 4, 8, m.NumNodes() + 5} {
					got, ok := ix.Query(tc.space, start, goal, k, nil)
					tag := fmt.Sprintf("%s seed %d query %d k=%d", tc.name, seed, q, k)
					checkAgainstReference(t, tag, tc.space, m, start, goal, k, got, ok)
				}
			}
		}
	}
}

func TestIndexQueryDisconnected(t *testing.T) {
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)},
		},
	}
	s := cspace.NewPointSpace(e)
	m := roadmapOf(s, []Node{{Q: geom.V(0.1, 0.5, 0.5)}, {Q: geom.V(0.9, 0.5, 0.5)}}, nil)
	ix := BuildIndex(m)
	if ix.comps != 2 {
		t.Fatalf("components = %d, want 2", ix.comps)
	}
	var c cspace.Counters
	if _, ok := ix.Query(s, geom.V(0.05, 0.5, 0.5), geom.V(0.95, 0.5, 0.5), 1, &c); ok {
		t.Fatal("wall-separated query must fail")
	}
	// No candidate pair shares a component, so the query is rejected on
	// labels alone, before any attach local plan.
	if c.LPCalls != 0 {
		t.Fatalf("disconnected query ran %d local plans, want 0", c.LPCalls)
	}
	if c.KNNQueries != 2 {
		t.Fatalf("disconnected query metered %d kd lookups, want 2", c.KNNQueries)
	}
}

func TestIndexQueryDoesNotMutate(t *testing.T) {
	s := freeSpace()
	m := buildTestRoadmap(t, s, 40, 21)
	ix := BuildIndex(m)
	nodes, edges := m.NumNodes(), m.NumEdges()
	for i := 0; i < 5; i++ {
		ix.Query(s, geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), 4, nil)
	}
	if m.NumNodes() != nodes || m.NumEdges() != edges {
		t.Fatalf("index query mutated roadmap: %d/%d -> %d/%d", nodes, edges, m.NumNodes(), m.NumEdges())
	}
}

func TestIndexQueryEmptyRoadmap(t *testing.T) {
	s := freeSpace()
	ix := BuildIndex(roadmapOf(s, nil, nil))
	if _, ok := ix.Query(s, geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), 4, nil); ok {
		t.Fatal("empty roadmap query must fail")
	}
}

// A region connects through its kept tree (RegionTree) exactly as
// through the arena's tree reset over the same nodes: the same edges and
// the same Counters, whole region and incremental pass alike. The kept
// trees stand in for the arena's on that property.
func TestConnectRegionTreeMatchesArenaTree(t *testing.T) {
	p := Params{SamplesPerRegion: 80, K: 5}
	for _, s := range []*cspace.Space{freeSpace(), cspace.NewPointSpace(env.MedCube())} {
		nodes, _ := SampleRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, p, rng.New(3))
		a := new(arena)
		for _, firstNew := range []int{0, len(nodes) / 2} {
			kept, keptWork := connectTreeArena(s, RegionTree(nodes), firstNew, p, a)
			a.tree.Reset(gather(&a.pts, nodes))
			reset, resetWork := connectTreeArena(s, &a.tree, firstNew, p, a)
			if len(kept) == 0 || !reflect.DeepEqual(kept, reset) || keptWork != resetWork {
				t.Fatalf("%s, firstNew %d: kept tree %d edges %+v, arena tree %d edges %+v",
					s.Env.Name, firstNew, len(kept), keptWork, len(reset), resetWork)
			}
		}
	}
}

// firstNew = 0 is exactly the whole-region connect (the arena's tree
// reset over every node): the same edges and the same Counters. An
// incremental pass over appended nodes only produces edges touching at
// least one new node.
func TestConnectRegionIncrementalMatchesFull(t *testing.T) {
	s := freeSpace()
	p := Params{SamplesPerRegion: 50, K: 4}
	res := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, p, rng.New(3))

	full, fullWork := ConnectRegionIncremental(s, res.Nodes, 0, p)
	ref, refWork := connectArenaTree(s, res.Nodes, p, new(arena))
	if len(full) == 0 || !reflect.DeepEqual(full, ref) || fullWork != refWork {
		t.Fatalf("firstNew=0 produced %d edges %+v, full connect %d edges %+v",
			len(full), fullWork, len(ref), refWork)
	}

	// Append more nodes and connect incrementally.
	more := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: 30, K: 4}, rng.New(4))
	firstNew := len(res.Nodes)
	all := append(append([]Node(nil), res.Nodes...), more.Nodes...)
	inc, _ := ConnectRegionIncremental(s, all, firstNew, p)
	if len(inc) == 0 {
		t.Fatal("incremental connect found no edges in free space")
	}
	for _, e := range inc {
		if e[0] < firstNew && e[1] < firstNew {
			t.Fatalf("incremental edge %v touches only old nodes", e)
		}
	}
}

// withTrees returns m carrying region trees over runs of size vertices,
// the shape an engine publishes.
func withTrees(m *Roadmap, size int) *Roadmap {
	var trees []*knn.KDTree
	for lo := 0; lo < m.NumNodes(); lo += size {
		nodes := make([]Node, 0, size)
		for v := lo; v < min(lo+size, m.NumNodes()); v++ {
			nodes = append(nodes, m.G.Vertex(graph.ID(v)))
		}
		trees = append(trees, RegionTree(nodes))
	}
	return WithRegionTrees(m.G, trees)
}

// TestBuildIndexAssemblesRegionTrees: a roadmap whose region trees cover
// it exactly is indexed by those trees; one whose trees do not is
// indexed by one tree over all of it. Both answer as the one-tree index.
func TestBuildIndexAssemblesRegionTrees(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	plain := buildTestRoadmap(t, s, 600, 17)
	m := withTrees(plain, 37)
	ix, one := BuildIndex(m), BuildIndex(plain)
	if !m.regionTrees() || !reflect.DeepEqual(ix.forest, knn.NewForest(m.trees)) {
		t.Fatal("BuildIndex did not assemble the roadmap's region trees")
	}
	if !indexedByOneTree(one) {
		t.Fatal("a roadmap without trees is not indexed by one tree over all of it")
	}
	r := rng.New(3)
	for i := 0; i < 40; i++ {
		start, goal := geom.V(r.Float64(), r.Float64(), r.Float64()), geom.V(r.Float64(), r.Float64(), r.Float64())
		got, gotOK := ix.Query(s, start, goal, 6, nil)
		want, wantOK := one.Query(s, start, goal, 6, nil)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: forest %v %d hops, one tree %v %d hops", i, gotOK, len(got), wantOK, len(want))
		}
	}
	extra := append(append([]*knn.KDTree(nil), m.trees...), RegionTree([]Node{m.G.Vertex(0)}))
	for name, bad := range map[string]*Roadmap{
		"a tree past the vertex count": WithRegionTrees(m.G, extra),
		"a tree missing":               WithRegionTrees(m.G, m.trees[1:]),
		"a nil tree":                   WithRegionTrees(m.G, append([]*knn.KDTree{nil}, m.trees[1:]...)),
	} {
		if !indexedByOneTree(BuildIndex(bad)) {
			t.Errorf("%s: not indexed by one tree over the roadmap", name)
		}
	}
}

// indexedByOneTree reports whether ix's forest is its own tree, built
// over every vertex of its roadmap in id order.
func indexedByOneTree(ix *Index) bool {
	pts := make([]geom.Vec, ix.NumNodes())
	for v := range pts {
		pts[v] = ix.verts[v].Q
	}
	return reflect.DeepEqual(ix.forest, knn.NewForest(ix.single[:])) &&
		reflect.DeepEqual(ix.single[0], knn.Build(pts))
}

package prm

import (
	"sync"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

func regionsEqual(t *testing.T, got, want regionResult) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("node count %d, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if !got.Nodes[i].Q.Equal(want.Nodes[i].Q, 0) || got.Nodes[i].Region != want.Nodes[i].Region {
			t.Fatalf("node %d differs: %+v vs %+v", i, got.Nodes[i], want.Nodes[i])
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, got.Edges[i], want.Edges[i])
		}
	}
	if got.Work != want.Work {
		t.Fatalf("work differs: %+v vs %+v", got.Work, want.Work)
	}
}

// connectArenaTree connects every node of a region through a's own tree,
// reset over the gathered nodes.
func connectArenaTree(s *cspace.Space, nodes []Node, p Params, a *arena) ([][2]int, cspace.Counters) {
	a.tree.Reset(gather(&a.pts, nodes))
	return connectTreeArena(s, &a.tree, 0, p, a)
}

// TestArenaReuseBitIdentical replays the same region many times through
// one deliberately dirty arena: every replay must reproduce the fresh
// arena's result bit for bit, or pooled state is leaking into results.
func TestArenaReuseBitIdentical(t *testing.T) {
	s := cspace.NewRigidBodySpace(env.MedCube(), cspace.NewRigidBox(0.03, 0.02, 0.01))
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	p := Params{SamplesPerRegion: 40, K: 5}

	build := func(a *arena, seed uint64) regionResult {
		var res regionResult
		r := rng.Derive(seed, 0)
		res.Nodes, res.Work = sampleRegionArena(s, box, 0, p, r, a)
		edges, cw := connectArenaTree(s, res.Nodes, p, a)
		res.Edges = edges
		res.Work.Add(cw)
		return res
	}

	dirty := getArena()
	defer putArena(dirty)
	for _, seed := range []uint64{3, 4, 5} {
		fresh := build(new(arena), seed)
		for rep := 0; rep < 3; rep++ {
			regionsEqual(t, build(dirty, seed), fresh)
		}
	}
}

// TestArenaPoolConcurrent builds many regions concurrently through the
// shared arena pool and compares every result against its sequential
// twin. Run under -race this is the pooled-kernel safety test: arenas
// must never be visible to two tasks at once.
func TestArenaPoolConcurrent(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	p := Params{SamplesPerRegion: 30, K: 4}
	const regions = 24

	want := make([]regionResult, regions)
	for i := range want {
		want[i] = buildRegion(s, box, i, p, rng.Derive(99, uint64(i)))
	}

	got := make([]regionResult, regions)
	var wg sync.WaitGroup
	for i := 0; i < regions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = buildRegion(s, box, i, p, rng.Derive(99, uint64(i)))
		}(i)
	}
	wg.Wait()
	for i := range want {
		regionsEqual(t, got[i], want[i])
	}
}

// TestConnectBoundaryArenaReuse replays boundary connection through a
// dirty arena, including the frontier (maxSources) path whose centroid
// buffer is reused.
func TestConnectBoundaryArenaReuse(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	aNodes, _ := SampleRegion(s, geom.Box3(0, 0, 0, 0.5, 1, 1), 0, Params{SamplesPerRegion: 40}, rng.Derive(5, 0))
	bNodes, _ := SampleRegion(s, geom.Box3(0.5, 0, 0, 1, 1, 1), 1, Params{SamplesPerRegion: 40}, rng.Derive(5, 1))
	for _, maxSources := range []int{0, 8} {
		fresh := connectBoundaryArena(s, aNodes, bNodes, 3, maxSources, new(arena))
		dirty := getArena()
		for rep := 0; rep < 3; rep++ {
			got := connectBoundaryArena(s, aNodes, bNodes, 3, maxSources, dirty)
			if got.Attempts != fresh.Attempts || got.Work != fresh.Work || len(got.Edges) != len(fresh.Edges) {
				t.Fatalf("maxSources=%d rep %d: got %+v, want %+v", maxSources, rep, got, fresh)
			}
			for i := range got.Edges {
				if got.Edges[i] != fresh.Edges[i] {
					t.Fatalf("edge %d differs: %v vs %v", i, got.Edges[i], fresh.Edges[i])
				}
			}
		}
		putArena(dirty)
	}
}

// Connection through a region's kept tree runs out of a warm arena: one
// allocation, the returned edge list, whatever the region's size. (The
// arena is held, not pooled: sync.Pool drops entries at random under the
// race detector.) A commit's index build is a fixed seven (component
// labels, point gather, kd-tree) — none per node — and at most as many
// when the roadmap carries region trees, whatever its size, since the
// forest is assembled from them.
func TestKernelAllocsIndependentOfSize(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	a := new(arena)
	for _, n := range []int{100, 200, 400} {
		nodes, _ := SampleRegion(s, s.Bounds, 0, Params{SamplesPerRegion: n}, rng.New(7))
		half := len(nodes) / 2
		tree := RegionTree(nodes)
		region := testing.AllocsPerRun(5, func() { connectTreeArena(s, tree, 0, Params{K: 8}, a) })
		boundary := testing.AllocsPerRun(5, func() { connectBoundaryArena(s, nodes[:half], nodes[half:], 4, 16, a) })
		if region > 1 || boundary > 1 {
			t.Errorf("%d samples: ConnectRegionTree %v, ConnectBoundary %v allocations, want at most 1 and 1", n, region, boundary)
		}
	}
	for _, n := range []int{2000, 8000} {
		m := buildTestRoadmap(t, s, n, 29)
		if allocs := testing.AllocsPerRun(3, func() { BuildIndex(m) }); allocs > 7 {
			t.Errorf("%d nodes: BuildIndex %v allocations, want at most 7", m.NumNodes(), allocs)
		}
	}
	var treeAllocs []float64
	for _, n := range []int{2000, 8000} {
		m := withTrees(buildTestRoadmap(t, s, n, 29), 64)
		allocs := testing.AllocsPerRun(3, func() { BuildIndex(m) })
		if allocs > 7 {
			t.Errorf("%d nodes in %d region trees: BuildIndex %v allocations, want at most 7", m.NumNodes(), len(m.trees), allocs)
		}
		treeAllocs = append(treeAllocs, allocs)
	}
	if treeAllocs[1] > treeAllocs[0] {
		t.Errorf("BuildIndex over region trees: %v allocations at 2000 samples, %v at 8000; want no growth", treeAllocs[0], treeAllocs[1])
	}
}

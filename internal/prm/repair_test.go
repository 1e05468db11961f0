package prm

import (
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/rng"
)

// buildRepairRoadmap grows a small roadmap in e and returns it with its
// space.
func buildRepairRoadmap(t *testing.T, e *env.Environment, samples int) (*cspace.Space, *Roadmap) {
	t.Helper()
	s := cspace.NewPointSpace(e)
	p := Params{SamplesPerRegion: samples, K: 6}
	r := rng.New(11)
	nodes, _ := SampleRegion(s, e.Bounds, 0, p, r)
	edges, _ := ConnectRegionIncremental(s, nodes, 0, p)
	return s, roadmapOf(s, nodes, edges)
}

func TestRevalidateRegionAgainstFullRecheck(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 250)
	n := m.NumNodes()

	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.35, 0.35, 0.35, 0.6, 0.6, 0.6)})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)
	rr := RevalidateRegion(dc, m.G, 0, n, nil)

	after := s.WithEnv(mutated)
	var dead []graph.ID
	for i := 0; i < n; i++ {
		if !after.Valid(m.G.Vertex(graph.ID(i)).Q, nil) {
			dead = append(dead, graph.ID(i))
		}
	}
	if !reflect.DeepEqual(rr.Dead, dead) {
		t.Fatalf("dead %v, full recheck %v", rr.Dead, dead)
	}
	// Every edge once, lower id first: dead with an endpoint, or blocked.
	var blocked [][2]graph.ID
	deadE := 0
	m.G.ForEachEdge(func(a, b graph.ID, _ float64) {
		qa, qb := m.G.Vertex(a).Q, m.G.Vertex(b).Q
		switch {
		case !after.Valid(qa, nil) || !after.Valid(qb, nil):
			deadE++
		case !after.LocalPlan(qa, qb, nil):
			blocked = append(blocked, [2]graph.ID{a, b})
			deadE++
		}
	})
	if !reflect.DeepEqual(rr.Blocked, blocked) {
		t.Fatalf("blocked %v, full recheck %v", rr.Blocked, blocked)
	}
	if len(dead) == 0 || len(blocked) == 0 {
		t.Fatalf("weak test: %d dead nodes, %d blocked edges (want both > 0)", len(dead), len(blocked))
	}
	if rr.RemovedNodes != len(dead) || rr.RemovedEdges != deadE {
		t.Fatalf("stats removed=%d/%d, counted %d/%d", rr.RemovedNodes, rr.RemovedEdges, len(dead), deadE)
	}
	// Culling must have saved work: the obstacle covers a corner of the
	// volume, so most nodes are screened out geometrically.
	if rr.CheckedNodes >= n {
		t.Fatalf("no node culling: checked %d of %d", rr.CheckedNodes, n)
	}
}

func TestAffectedVerticesSuperset(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 300)
	ix := BuildIndex(m)
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.SphereObstacle{Center: geom.V(0.5, 0.5, 0.5), Radius: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)
	cand := ix.AffectedVertices(dc)
	in := make(map[int]bool, len(cand))
	for _, i := range cand {
		in[i] = true
	}
	after := s.WithEnv(mutated)
	for i := 0; i < m.NumNodes(); i++ {
		q := m.G.Vertex(graph.ID(i)).Q
		if !after.Valid(q, nil) && !in[i] {
			t.Fatalf("vertex %d became blocked but is not a candidate", i)
		}
	}
	if len(cand) == 0 || len(cand) == m.NumNodes() {
		t.Fatalf("weak candidate set: %d of %d", len(cand), m.NumNodes())
	}
	// Removal-only deltas select nothing.
	m2 := base.Clone()
	m2.Obstacles = append(m2.Obstacles, env.SphereObstacle{Center: geom.V(0.2, 0.2, 0.2), Radius: 0.05})
	dRem, err := m2.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.AffectedVertices(cspace.NewDeltaChecker(s, dRem)); got != nil {
		t.Fatalf("removal delta selected %d candidates", len(got))
	}
}

// relabelScopedMaps is the reference RelabelScoped: hash maps for the
// dense relabel, the vertex slots and the fresh labels, and a union-find
// over the touched vertices. The flat implementation must number every
// component exactly as this one does.
func relabelScopedMaps(m *Roadmap, oldLabel []int32, touched []bool) (labels []int32, comps int) {
	n := m.NumNodes()
	labels = make([]int32, n)
	remap := make(map[int32]int32)
	var touchedVerts []int
	for v := 0; v < n; v++ {
		ol := oldLabel[v]
		if touched[ol] {
			touchedVerts = append(touchedVerts, v)
			continue
		}
		nl, ok := remap[ol]
		if !ok {
			nl = int32(comps)
			comps++
			remap[ol] = nl
		}
		labels[v] = nl
	}
	local := make(map[int]int, len(touchedVerts))
	for i, v := range touchedVerts {
		local[v] = i
	}
	uf := graph.NewUnionFind(len(touchedVerts))
	for _, v := range touchedVerts {
		to, _ := m.G.Neighbors(graph.ID(v))
		for _, u := range to {
			if lw, ok := local[int(u)]; ok {
				uf.Union(local[v], lw)
			}
		}
	}
	fresh := make(map[int]int32)
	for i, v := range touchedVerts {
		root := uf.Find(i)
		nl, ok := fresh[root]
		if !ok {
			nl = int32(comps)
			comps++
			fresh[root] = nl
		}
		labels[v] = nl
	}
	return labels, comps
}

func TestRelabelScopedMatchesFullRelabel(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 220)
	oldLabels, _ := m.G.ConnectedComponents()

	// Simulate a repair: drop every vertex in a slab of the workspace by
	// rebuilding the roadmap without them (what the engine's compaction
	// does), tracking old→new ids.
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)

	oldToNew := make([]int, m.NumNodes())
	var kept []Node
	for i := 0; i < m.NumNodes(); i++ {
		nd := m.G.Vertex(graph.ID(i))
		if dc.ConfigStillFree(nd.Q, nil) {
			oldToNew[i] = len(kept)
			kept = append(kept, nd)
		} else {
			oldToNew[i] = -1
		}
	}
	var sp graph.EdgeSpan
	touched := make([]bool, m.NumNodes()) // labels bounded by node count
	markTouched := func(oldID int) { touched[oldLabels[oldID]] = true }
	m.G.ForEachEdge(func(a, b graph.ID, w float64) {
		na, nb := oldToNew[a], oldToNew[b]
		if na < 0 || nb < 0 {
			markTouched(int(a))
			return
		}
		if dc.EdgeStillFree(kept[na].Q, kept[nb].Q, nil) {
			sp.Ends = append(sp.Ends, [2]int{na, nb})
			sp.Weights = append(sp.Weights, w)
		} else {
			markTouched(int(a))
		}
	})
	for i, nn := range oldToNew {
		if nn < 0 {
			markTouched(i)
		}
	}
	repaired := &Roadmap{G: graph.FromSpans(kept, []graph.EdgeSpan{sp})}

	oldLabelOfNew := make([]int32, repaired.NumNodes())
	for oldID, newID := range oldToNew {
		if newID >= 0 {
			oldLabelOfNew[newID] = oldLabels[oldID]
		}
	}
	gotLabels, gotComps := RelabelScoped(repaired, oldLabelOfNew, touched)
	wantLabels, wantComps := repaired.G.ConnectedComponents()
	if gotComps != wantComps {
		t.Fatalf("scoped comps = %d, full = %d", gotComps, wantComps)
	}
	// Labels must agree up to a bijection.
	fwd := make(map[int32]int32)
	for v := range gotLabels {
		if mapped, ok := fwd[gotLabels[v]]; ok {
			if mapped != wantLabels[v] {
				t.Fatalf("vertex %d: scoped label %d maps to both %d and %d",
					v, gotLabels[v], mapped, wantLabels[v])
			}
		} else {
			fwd[gotLabels[v]] = wantLabels[v]
		}
	}
	if len(fwd) != wantComps {
		t.Fatalf("label bijection has %d entries, want %d", len(fwd), wantComps)
	}
	// The numbering itself is a contract (snapshots of the same content
	// carry the same labels): it must be the map-based reference's.
	refLabels, refComps := relabelScopedMaps(repaired, oldLabelOfNew, touched)
	if refComps != gotComps || !reflect.DeepEqual(refLabels, gotLabels) {
		t.Fatalf("label numbering differs from the reference (%d vs %d comps)", gotComps, refComps)
	}
	// Sanity: the slab actually split or shrank something.
	if repaired.NumNodes() == m.NumNodes() {
		t.Fatal("weak test: no vertex died")
	}
	// And IndexFromParts serves queries with those labels.
	ix := IndexFromParts(repaired, gotLabels, gotComps)
	if ix.comps != gotComps || ix.NumNodes() != repaired.NumNodes() {
		t.Fatal("IndexFromParts lost parts")
	}
}

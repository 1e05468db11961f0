package core

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
)

// grownPRMEngine returns a free-space PRM engine after one round of
// samples attempts per region (all valid: 64 regions × samples nodes).
func grownPRMEngine(t *testing.T, samples int) *PRMEngine {
	t.Helper()
	opts := quickOpts(4, 64)
	opts.SamplesPerRegion = samples
	eng, err := NewPRMEngine(cspace.NewPointSpace(env.Free()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// Publishing a round is a fixed number of allocations whatever the
// roadmap's size: the round's own entries (row ends, targets, weights)
// and the row builder's offsets, targets, weights and graph — no per-row
// or per-vertex growth. The round is a second one, stopped in its last
// replay with every buffer filled, and extend derives its roadmap from
// the committed one without committing it.
func TestPublishAllocationsIndependentOfSize(t *testing.T) {
	var allocs [2]float64
	for i, samples := range []int{64, 256} {
		eng := grownPRMEngine(t, samples)
		if got, want := eng.Result().Roadmap.NumNodes(), 64*samples; got != want {
			t.Fatalf("fixture has %d nodes, want %d", got, want)
		}
		tap := &referenceTap{e: eng}
		eng.pl.vt = tap
		if err := eng.GrowRound(tap.arm(3)); err != ErrStopped {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
		eng.rd = tap.rd
		base := make([]int, len(eng.rd.combined)+1)
		for r, nodes := range eng.rd.combined {
			base[r+1] = base[r] + len(nodes)
		}
		if g := eng.extend(base); g.NumVertices() != 2*64*samples || g.NumEdges() <= eng.g.NumEdges() {
			t.Fatalf("extended roadmap %v from %v", g, eng.g)
		}
		// The fewest of a few readings: mallocs are counted process-wide,
		// and the round's executor goroutines may still be winding down.
		allocs[i] = 1e9
		for k := 0; k < 3; k++ {
			allocs[i] = min(allocs[i], testing.AllocsPerRun(3, func() { eng.extend(base) }))
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 10 {
		t.Fatalf("publish costs %v allocations at 4k nodes and %v at 16k, want equal and at most 10", allocs[0], allocs[1])
	}
}

// Edge weights are measured once, at commit, and carried through every
// later round's extension and repair's filter: each must still be exactly the
// metric distance between the endpoints it is published with.
func TestPublishedWeightsSurviveGrowthAndRepair(t *testing.T) {
	eng := grownPRMEngine(t, 8)
	s := eng.s
	check := func(stage string) {
		t.Helper()
		g := eng.Result().Roadmap.G
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", stage)
		}
		g.ForEachEdge(func(a, b graph.ID, w float64) {
			if want := s.Distance(g.Vertex(a).Q, g.Vertex(b).Q); w != want {
				t.Fatalf("%s: edge %d-%d weighs %v, endpoints are %v apart", stage, a, b, w, want)
			}
		})
	}
	check("round 0")
	for i, box := range []geom.AABB{geom.Box3(0.3, 0.3, 0.3, 0.5, 0.5, 0.5), geom.Box3(0.1, 0.6, 0.1, 0.4, 0.9, 0.9)} {
		mutated, d := mutateAddBox(t, eng.s.Env, box)
		rep, err := eng.ApplyDelta(eng.s.WithEnv(mutated), d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.RemovedNodes == 0 || rep.VertexRemap == nil {
			t.Fatalf("delta %d removed nothing: %+v", i, rep.Stats)
		}
		check("after repair")
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
		check("after regrowth")
	}
}

package core

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/prm"
	"parmp/internal/rng"
)

// mutateAddBox clones base, adds a box obstacle, and returns the
// mutated environment with its delta.
func mutateAddBox(t *testing.T, base *env.Environment, box geom.AABB) (*env.Environment, env.Delta) {
	t.Helper()
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: box})
	if err != nil {
		t.Fatal(err)
	}
	return mutated, d
}

// assertRoadmapValid fully re-checks every vertex and edge of m against
// s — the ground truth any repair must reproduce.
func assertRoadmapValid(t *testing.T, s *cspace.Space, m *prm.Roadmap) {
	t.Helper()
	for i := 0; i < m.NumNodes(); i++ {
		if !s.Valid(m.G.Vertex(graph.ID(i)).Q, nil) {
			t.Fatalf("repaired roadmap keeps blocked vertex %d", i)
		}
	}
	bad := 0
	m.G.ForEachEdge(func(a, b graph.ID, w float64) {
		if !s.LocalPlan(m.G.Vertex(a).Q, m.G.Vertex(b).Q, nil) {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("repaired roadmap keeps %d blocked edges", bad)
	}
}

// TestApplyDeltaKeepsPhaseReportsBounded: the phase-report log belongs
// to growth rounds. A hundred invalidating deltas on a grown engine
// leave it as long as they found it (it read 3 -> 203 when every repair
// retained its two phase reports), while the repair accounting still
// accumulates.
func TestApplyDeltaKeepsPhaseReportsBounded(t *testing.T) {
	world := env.Free()
	s := cspace.NewPointSpace(world)
	opts := quickOpts(4, 64)
	opts.SamplesPerRegion = 4
	eng, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	grown := len(eng.Result().PhaseReports)
	if grown == 0 {
		t.Fatal("the growth round retained no phase reports")
	}
	const deltas = 100
	for i := 0; i < deltas; i++ {
		// A thin slab marching across the cube: every delta adds an
		// obstacle, so every delta is invalidating.
		x := 0.05 + 0.009*float64(i)
		var d env.Delta
		world, d = mutateAddBox(t, world, geom.Box3(x, 0.2, 0.2, x+0.004, 0.8, 0.8))
		s = s.WithEnv(world)
		if _, err := eng.ApplyDelta(s, d, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	res := eng.Result()
	if got := len(res.PhaseReports); got != grown {
		t.Errorf("%d deltas took PhaseReports from %d to %d entries", deltas, grown, got)
	}
	if res.Repairs.Deltas != deltas || res.Repairs.Makespan <= 0 || res.Phases.Repair != res.Repairs.Makespan {
		t.Errorf("repair accounting lost: %d deltas, makespan %v, Phases.Repair %v",
			res.Repairs.Deltas, res.Repairs.Makespan, res.Phases.Repair)
	}
	// The next growth round appends its own reports where the log ended.
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	after := eng.Result().PhaseReports
	if len(after) != 2*grown || after[grown].Phase != after[0].Phase {
		t.Errorf("round 2 left %d reports (report %d is phase %q), want %d starting with %q",
			len(after), grown, after[min(grown, len(after)-1)].Phase, 2*grown, after[0].Phase)
	}
}

func TestPRMEngineApplyDelta(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	opts := quickOpts(4, 64)
	opts.SamplesPerRegion = 8
	eng, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Result()
	beforeNodes := before.Roadmap.NumNodes()

	mutated, d := mutateAddBox(t, base, geom.Box3(0.3, 0.3, 0.3, 0.6, 0.6, 0.6))
	after := s.WithEnv(mutated)
	rep, err := eng.ApplyDelta(after, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Result()
	if res == before {
		t.Fatal("ApplyDelta did not publish a fresh result")
	}
	if res.Roadmap.NumNodes() >= beforeNodes {
		t.Fatalf("no vertices removed: %d -> %d", beforeNodes, res.Roadmap.NumNodes())
	}
	assertRoadmapValid(t, after, res.Roadmap)
	// The pre-repair result is untouched (immutability contract).
	if before.Roadmap.NumNodes() != beforeNodes {
		t.Fatal("published result mutated by repair")
	}
	// Remap fidelity: every surviving old vertex maps to the same
	// configuration in the new merged roadmap.
	if len(rep.VertexRemap) != beforeNodes {
		t.Fatalf("remap has %d entries, want %d", len(rep.VertexRemap), beforeNodes)
	}
	for old, nw := range rep.VertexRemap {
		if nw < 0 {
			continue
		}
		if !before.Roadmap.G.Vertex(graph.ID(old)).Q.Equal(res.Roadmap.G.Vertex(graph.ID(nw)).Q, 0) {
			t.Fatalf("remap %d -> %d points at a different configuration", old, nw)
		}
	}
	if rep.Stats.RemovedNodes == 0 || rep.Stats.CheckedNodes == 0 {
		t.Fatalf("stats empty: %+v", rep.Stats)
	}
	if res.Repairs.Deltas != 1 || res.Phases.Repair <= 0 {
		t.Fatalf("repair accounting missing: deltas=%d repair=%v", res.Repairs.Deltas, res.Phases.Repair)
	}
	if len(rep.TouchedVertices) == 0 {
		t.Fatal("no touched vertices despite removals")
	}

	// The engine keeps growing in the mutated world, and the grown
	// roadmap stays fully valid there.
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	grown := eng.Result()
	if grown.Roadmap.NumNodes() <= res.Roadmap.NumNodes() {
		t.Fatal("post-repair round grew nothing")
	}
	assertRoadmapValid(t, after, grown.Roadmap)
}

func TestPRMEngineApplyDeltaWithCandidates(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	opts := quickOpts(2, 16)
	opts.SamplesPerRegion = 10
	run := func(candidates func(ix *prm.Index, dc *cspace.DeltaChecker) []int) (*PRMResult, RepairStats) {
		eng, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
		mutated, d := mutateAddBox(t, base, geom.Box3(0.4, 0.4, 0.4, 0.62, 0.62, 0.62))
		var cand []int
		if candidates != nil {
			ix := prm.BuildIndex(eng.Result().Roadmap)
			cand = candidates(ix, cspace.NewDeltaChecker(s, d))
		}
		rep, err := eng.ApplyDelta(s.WithEnv(mutated), d, cand, nil)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Result(), rep.Stats
	}
	full, fullStats := run(nil)
	scoped, scopedStats := run(func(ix *prm.Index, dc *cspace.DeltaChecker) []int {
		return ix.AffectedVertices(dc)
	})
	// The kd-scoped candidate set must reach the same repaired roadmap.
	if full.Roadmap.NumNodes() != scoped.Roadmap.NumNodes() ||
		full.Roadmap.NumEdges() != scoped.Roadmap.NumEdges() {
		t.Fatalf("candidate-scoped repair diverged: %d/%d nodes, %d/%d edges",
			scoped.Roadmap.NumNodes(), full.Roadmap.NumNodes(),
			scoped.Roadmap.NumEdges(), full.Roadmap.NumEdges())
	}
	if scopedStats.CheckedNodes > fullStats.CheckedNodes {
		t.Fatalf("candidates increased work: %d > %d", scopedStats.CheckedNodes, fullStats.CheckedNodes)
	}
}

func TestPRMEngineApplyDeltaRemovalOnly(t *testing.T) {
	base := env.MedCube()
	s := cspace.NewPointSpace(base)
	eng, err := NewPRMEngine(s, quickOpts(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	nodes := eng.Result().Roadmap.NumNodes()
	edges := eng.Result().Roadmap.NumEdges()

	mutated := base.Clone()
	d, err := mutated.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ApplyDelta(s.WithEnv(mutated), d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VertexRemap != nil {
		t.Fatal("removal-only delta produced a non-identity remap")
	}
	if got := eng.Result().Roadmap; got.NumNodes() != nodes || got.NumEdges() != edges {
		t.Fatal("removal-only delta changed the roadmap")
	}
	if rep.Stats.CheckedNodes != 0 || rep.Stats.Work.CDCalls != 0 {
		t.Fatalf("removal-only repair did collision work: %+v", rep.Stats)
	}
}

func TestPRMEngineApplyDeltaCancellation(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	eng, err := NewPRMEngine(s, quickOpts(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	before := eng.Result()
	reports := len(before.PhaseReports)

	mutated, d := mutateAddBox(t, base, geom.Box3(0.3, 0.3, 0.3, 0.7, 0.7, 0.7))
	stop := make(chan struct{})
	close(stop)
	if _, err := eng.ApplyDelta(s.WithEnv(mutated), d, nil, stop); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if eng.Result() != before {
		t.Fatal("canceled repair replaced the published result")
	}
	if len(eng.pl.reports) != reports {
		t.Fatal("canceled repair leaked phase reports")
	}
	// A later, uncanceled repair still works.
	if _, err := eng.ApplyDelta(s.WithEnv(mutated), d, nil, nil); err != nil {
		t.Fatal(err)
	}
	assertRoadmapValid(t, s.WithEnv(mutated), eng.Result().Roadmap)
}

// assertForestValid fully re-checks every branch and bridge of an RRT
// result against s.
func assertForestValid(t *testing.T, s *cspace.Space, res *RRTResult) {
	t.Helper()
	for bi, tree := range res.Branches {
		if tree == nil {
			continue
		}
		for i, nd := range tree.Nodes {
			if i == 0 {
				continue // the root stays by contract even if blocked
			}
			if !s.Valid(nd.Q, nil) {
				t.Fatalf("branch %d keeps blocked node %d", bi, i)
			}
			if nd.Parent > 0 && !s.LocalPlan(tree.Nodes[nd.Parent].Q, nd.Q, nil) {
				t.Fatalf("branch %d keeps blocked edge %d->%d", bi, nd.Parent, i)
			}
		}
	}
	for _, br := range res.Bridges {
		a, ia, b, ib := br[0], br[1], br[2], br[3]
		qa := res.Branches[a].Nodes[ia].Q
		qb := res.Branches[b].Nodes[ib].Q
		if !s.LocalPlan(qa, qb, nil) {
			t.Fatalf("bridge %v is blocked", br)
		}
	}
}

func repairRRTOpts(procs, regions int) Options {
	o := quickOpts(procs, regions)
	o.NodesPerRegion = 30
	o.Step = 0.05
	o.Radius = 0.9
	return o
}

func TestRRTEngineApplyDelta(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	eng, err := NewRRTEngine(s, geom.V(0.1, 0.1, 0.1), repairRRTOpts(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Result()
	beforeNodes := before.TotalNodes()

	mutated, d := mutateAddBox(t, base, geom.Box3(0.35, 0.35, 0.35, 0.65, 0.65, 0.65))
	after := s.WithEnv(mutated)
	st, err := eng.ApplyDelta(after, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Result()
	if res.TotalNodes() >= beforeNodes {
		t.Fatalf("no nodes pruned: %d -> %d", beforeNodes, res.TotalNodes())
	}
	assertForestValid(t, after, res)
	if before.TotalNodes() != beforeNodes {
		t.Fatal("published result mutated by repair")
	}
	if st.RemovedNodes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if res.Repairs.Deltas != 1 || res.Phases.Repair <= 0 {
		t.Fatal("repair accounting missing")
	}

	// Growth resumes in the mutated world and stays valid there.
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	assertForestValid(t, after, eng.Result())
}

func TestRRTStarEngineApplyDeltaCosts(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	opts := repairRRTOpts(2, 8)
	opts.Star = true
	eng, err := NewRRTEngine(s, geom.V(0.1, 0.1, 0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	mutated, d := mutateAddBox(t, base, geom.Box3(0.4, 0.4, 0.4, 0.6, 0.6, 0.6))
	after := s.WithEnv(mutated)
	if _, err := eng.ApplyDelta(after, d, nil); err != nil {
		t.Fatal(err)
	}
	// Cost-to-root must be consistent with the repaired parent edges.
	for i, st := range eng.branches {
		if st.tree == nil {
			continue
		}
		if len(st.tree.Cost) != len(st.tree.Nodes) {
			t.Fatalf("region %d: %d costs for %d nodes", i, len(st.tree.Cost), len(st.tree.Nodes))
		}
		for j, nd := range st.tree.Nodes {
			if nd.Parent < 0 {
				if st.tree.Cost[j] != 0 {
					t.Fatalf("region %d root cost %v", i, st.tree.Cost[j])
				}
				continue
			}
			want := st.tree.Cost[nd.Parent] + after.Distance(st.tree.Nodes[nd.Parent].Q, nd.Q)
			if diff := st.tree.Cost[j] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("region %d node %d cost %v, want %v", i, j, st.tree.Cost[j], want)
			}
		}
	}
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRRTConnectEngineApplyDelta(t *testing.T) {
	base := env.Free()
	s := cspace.NewPointSpace(base)
	root, goal := geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9)
	eng, err := NewRRTConnectEngine(s, root, goal, repairRRTOpts(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Result()

	mutated, d := mutateAddBox(t, base, geom.Box3(0.35, 0.35, 0.35, 0.65, 0.65, 0.65))
	after := s.WithEnv(mutated)
	if _, err := eng.ApplyDelta(after, d, nil); err != nil {
		t.Fatal(err)
	}
	res := eng.Result()
	assertForestValid(t, after, res)
	if res.TotalNodes() >= before.TotalNodes() {
		t.Fatalf("no nodes pruned: %d -> %d", before.TotalNodes(), res.TotalNodes())
	}
	if res.TreesMet > before.TreesMet {
		t.Fatal("repair invented met pairs")
	}
	// Pairs keep growing (un-met pairs resume) and stay valid.
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	assertForestValid(t, after, eng.Result())
}

// TestRepairCullMatchesUnculled: a repair skips every region whose nodes'
// bounding box misses the delta's cull box, and every pair whose two
// boxes' hull misses it. In a straight-line space every node and every
// edge's endpoint box lies inside those boxes, so the cull is exact: over
// random deltas the repair reports what the reference replay, which
// screens every entry, reports — counts, remap, touched ids and rows —
// for the point robot in warehouse-forklift and med-cube and for the
// rigid box. A steered space keeps per-entry screening.
func TestRepairCullMatchesUnculled(t *testing.T) {
	wh, _ := env.WarehouseForkliftMoves()
	cases := []struct {
		name    string
		s       *cspace.Space
		regions int
	}{
		{"point/warehouse-forklift", cspace.NewPointSpace(wh), 16},
		{"point/med-cube", cspace.NewPointSpace(env.MedCube()), 27},
		{"rigid/med-cube", cspace.NewRigidBodySpace(env.MedCube(), cspace.NewRigidBox(0.03, 0.02, 0.01)), 64},
	}
	ops := []byte{0, 0, 0}
	for j := 0; j < 16; j++ {
		ops = append(ops, byte(2+5*j)) // a mutation, some through kd candidates
	}
	for _, c := range cases {
		opts := quickOpts(4, c.regions)
		opts.SamplesPerRegion = 8
		e := runReferenceHistory(t, c.s, opts, ops)
		culled, r := 0, rng.New(3)
		for k := 0; k < 8; k++ {
			_, d := randomDelta(e.s.Env, r)
			dc := cspace.NewDeltaChecker(e.s, d)
			for _, pr := range e.pairs {
				if dc.Invalidating() && e.missed(dc, pr[0], pr[1]) {
					culled++
				}
			}
		}
		if culled == 0 {
			t.Errorf("%s: 8 random deltas culled no pair", c.name)
		}
	}

	maze := env.Maze2D(4, 0.2)
	_, d := mutateAddBox(t, maze, geom.Box2(0.05, 0.05, 0.15, 0.15))
	far := geom.AABB{Lo: geom.V(0.85, 0.85, 0), Hi: geom.V(0.95, 0.95, 1)}
	if cspace.NewDeltaChecker(cspace.NewPointSpace(maze), d).HullAffected(far, far) {
		t.Error("a point robot's far box is not culled")
	}
	if !cspace.NewDeltaChecker(cspace.NewDubinsSpace(maze, 0.1), d).HullAffected(far, far) {
		t.Error("a steered space culled a box")
	}
}

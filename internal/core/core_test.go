package core

import (
	"math"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// oneRound grows a just-built engine one round and returns its result:
// the one-shot plan of the engine's planner.
func oneRound[R any](eng interface {
	GrowRound(stop <-chan struct{}) error
	Result() R
}, err error) (res R, _ error) {
	if err == nil {
		err = eng.GrowRound(nil)
	}
	if err != nil {
		return res, err
	}
	return eng.Result(), nil
}

func quickOpts(procs, regions int) Options {
	return Options{
		Procs:            procs,
		Regions:          regions,
		SamplesPerRegion: 4,
		ConnectK:         3,
		Seed:             1,
		Profile:          work.Hopper(),
	}
}

func TestParallelPRMBasic(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	res, err := oneRound(NewPRMEngine(s, quickOpts(4, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Roadmap.NumNodes() == 0 {
		t.Fatal("no roadmap nodes")
	}
	if res.Roadmap.NumEdges() == 0 {
		t.Fatal("no roadmap edges")
	}
	if res.TotalTime <= 0 {
		t.Fatal("no virtual time accumulated")
	}
	if res.Phases.NodeConnection <= 0 || res.Phases.Sampling <= 0 {
		t.Fatalf("phases missing: %+v", res.Phases)
	}
	if math.Abs(res.TotalTime-res.Phases.Total()) > 1e-9 {
		t.Fatal("TotalTime != phase sum")
	}
	if len(res.NodeLoads) != 4 {
		t.Fatalf("NodeLoads = %v", res.NodeLoads)
	}
	var loadSum float64
	for _, l := range res.NodeLoads {
		loadSum += l
	}
	if int(loadSum) != res.Roadmap.NumNodes() {
		t.Fatalf("load sum %v != nodes %d", loadSum, res.Roadmap.NumNodes())
	}
}

func TestParallelPRMDeterministicAcrossStrategies(t *testing.T) {
	// The roadmap content must be identical for every strategy: load
	// balancing changes WHO does the work, never WHAT is computed.
	s := cspace.NewPointSpace(env.MedCube())
	base := quickOpts(4, 64)

	noLB, err := oneRound(NewPRMEngine(s, base))
	if err != nil {
		t.Fatal(err)
	}
	rp := base
	rp.Strategy = Repartition
	repart, err := oneRound(NewPRMEngine(s, rp))
	if err != nil {
		t.Fatal(err)
	}
	ws := base
	ws.Policy = steal.Hybrid{K: 4}
	stolen, err := oneRound(NewPRMEngine(s, ws))
	if err != nil {
		t.Fatal(err)
	}
	if noLB.Roadmap.NumNodes() != repart.Roadmap.NumNodes() ||
		noLB.Roadmap.NumNodes() != stolen.Roadmap.NumNodes() {
		t.Fatalf("node counts differ: %d %d %d",
			noLB.Roadmap.NumNodes(), repart.Roadmap.NumNodes(), stolen.Roadmap.NumNodes())
	}
	if noLB.Roadmap.NumEdges() != repart.Roadmap.NumEdges() ||
		noLB.Roadmap.NumEdges() != stolen.Roadmap.NumEdges() {
		t.Fatalf("edge counts differ: %d %d %d",
			noLB.Roadmap.NumEdges(), repart.Roadmap.NumEdges(), stolen.Roadmap.NumEdges())
	}
}

func TestRepartitioningImprovesImbalancedPRM(t *testing.T) {
	// med-cube with naive column partitioning is imbalanced; the paper
	// reports 2.9x at 96 procs. At small scale we just require a solid
	// improvement and a CV drop.
	s := cspace.NewPointSpace(env.MedCube())
	base := quickOpts(8, 128)
	base.SamplesPerRegion = 5
	noLB, err := oneRound(NewPRMEngine(s, base))
	if err != nil {
		t.Fatal(err)
	}
	rp := base
	rp.Strategy = Repartition
	res, err := oneRound(NewPRMEngine(s, rp))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.NodeConnection >= noLB.Phases.NodeConnection {
		t.Fatalf("repartitioning should cut node connection: %v vs %v",
			res.Phases.NodeConnection, noLB.Phases.NodeConnection)
	}
	if res.CVAfter >= res.CVBefore {
		t.Fatalf("CV should drop: before %v after %v", res.CVBefore, res.CVAfter)
	}
	if res.MigratedRegions == 0 {
		t.Fatal("repartitioning should migrate regions")
	}
}

func TestWorkStealingImprovesImbalancedPRM(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	base := quickOpts(8, 128)
	base.SamplesPerRegion = 5
	noLB, err := oneRound(NewPRMEngine(s, base))
	if err != nil {
		t.Fatal(err)
	}
	ws := base
	ws.Policy = steal.Hybrid{K: 8}
	res, err := oneRound(NewPRMEngine(s, ws))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.NodeConnection >= noLB.Phases.NodeConnection {
		t.Fatalf("stealing should cut node connection: %v vs %v",
			res.Phases.NodeConnection, noLB.Phases.NodeConnection)
	}
	stolen := 0
	for _, ps := range res.ProcStats {
		stolen += ps.TasksStolen
	}
	if stolen == 0 {
		t.Fatal("no tasks were stolen on an imbalanced workload")
	}
}

func TestFreeEnvironmentNoLBOverheadPRM(t *testing.T) {
	// Paper: in the free environment all LB variants show no significant
	// overhead over the baseline.
	s := cspace.NewPointSpace(env.Free())
	base := quickOpts(8, 128)
	noLB, err := oneRound(NewPRMEngine(s, base))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Options{
		func() Options { o := base; o.Strategy = Repartition; return o }(),
		func() Options { o := base; o.Policy = steal.Diffusive{}; return o }(),
	} {
		res, err := oneRound(NewPRMEngine(s, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTime > noLB.TotalTime*1.35 {
			t.Fatalf("%v overhead too high: %v vs %v", cfg.Strategy, res.TotalTime, noLB.TotalTime)
		}
	}
}

func TestPRMRemoteAccessesIncreaseWithRepartitioning(t *testing.T) {
	// Paper Fig 7(b): repartitioning increases region-connection remote
	// accesses because migration raises the edge cut relative to the
	// contiguous naive mapping.
	s := cspace.NewPointSpace(env.MedCube())
	base := quickOpts(8, 128)
	base.SamplesPerRegion = 5
	noLB, _ := oneRound(NewPRMEngine(s, base))
	rp := base
	rp.Strategy = Repartition
	rp.Partitioner = PartitionLPT // scatters regions, maximizing the effect
	res, _ := oneRound(NewPRMEngine(s, rp))
	if res.RegionRemote <= noLB.RegionRemote {
		t.Fatalf("remote accesses should rise: %d vs %d", res.RegionRemote, noLB.RegionRemote)
	}
	if res.EdgeCut <= noLB.EdgeCut {
		t.Fatalf("edge cut should rise: %d vs %d", res.EdgeCut, noLB.EdgeCut)
	}
}

func TestOptionsValidation(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	if _, err := oneRound(NewPRMEngine(s, Options{Procs: 8, Regions: 4})); err == nil {
		t.Fatal("Regions < Procs should fail")
	}
	// The deprecated WorkStealing without a policy is NoLB: stealing is
	// the policy's alone, so it validates and runs NoLB's round.
	want, err := oneRound(NewPRMEngine(s, quickOpts(2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	deprecated := quickOpts(2, 8)
	deprecated.Strategy = WorkStealing
	got, err := oneRound(NewPRMEngine(s, deprecated))
	if err != nil {
		t.Fatal("WorkStealing without a policy:", err)
	}
	if got.TotalTime != want.TotalTime || got.Roadmap.NumEdges() != want.Roadmap.NumEdges() {
		t.Fatalf("WorkStealing without a policy: T=%v, %d edges; NoLB: T=%v, %d edges",
			got.TotalTime, got.Roadmap.NumEdges(), want.TotalTime, want.Roadmap.NumEdges())
	}
}

func TestStrategyString(t *testing.T) {
	if NoLB.String() != "no-lb" || Repartition.String() != "repartition" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy should still print")
	}
}

func rrtOpts(procs, regions int) Options {
	return Options{
		Procs:          procs,
		Regions:        regions,
		NodesPerRegion: 12,
		Step:           0.05,
		Radius:         0.45,
		Seed:           3,
		Profile:        work.OpteronCluster(),
	}
}

func TestParallelRRTBasic(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	root := geom.V(0.5, 0.5, 0.5)
	res, err := oneRound(NewRRTEngine(s, root, rrtOpts(4, 32)))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNodes() < 32 {
		t.Fatalf("total nodes = %d, too few", res.TotalNodes())
	}
	if len(res.Branches) != 32 {
		t.Fatalf("branches = %d", len(res.Branches))
	}
	if res.TotalTime <= 0 {
		t.Fatal("no virtual time")
	}
	// Every branch must be rooted at the root configuration.
	for i, tr := range res.Branches {
		if tr.Len() > 0 && !tr.Nodes[0].Q.Equal(root, 1e-9) {
			t.Fatalf("branch %d not rooted at root", i)
		}
	}
}

func TestParallelRRTBridgesAcyclic(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	res, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), rrtOpts(4, 24)))
	if err != nil {
		t.Fatal(err)
	}
	// Region-level bridges must form a forest: edges <= regions - 1.
	if len(res.Bridges) >= 24 {
		t.Fatalf("too many bridges for a forest: %d", len(res.Bridges))
	}
	// In a free environment most adjacent branches connect, so pruning
	// must have occurred given the region graph has > n-1 edges.
	if res.PrunedCycles == 0 {
		t.Fatal("expected some pruned cycles in free space")
	}
}

func TestRRTStealingHelpsInMixed(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed())
	base := rrtOpts(8, 64)
	noLB, err := oneRound(NewRRTEngine(s, geom.V(0.3, 0.7, 0.5), base))
	if err != nil {
		t.Fatal(err)
	}
	ws := base
	ws.Policy = steal.Diffusive{}
	res, err := oneRound(NewRRTEngine(s, geom.V(0.3, 0.7, 0.5), ws))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.NodeConnection >= noLB.Phases.NodeConnection {
		t.Fatalf("stealing should cut growth phase: %v vs %v",
			res.Phases.NodeConnection, noLB.Phases.NodeConnection)
	}
}

func TestRRTRepartitioningWeightIsPoor(t *testing.T) {
	// The paper's key negative result: the k-ray weight correlates poorly
	// with actual branch cost, so repartitioning gives little benefit or
	// hurts. We check the correlation is far from 1.
	s := cspace.NewPointSpace(env.Mixed())
	rp := rrtOpts(8, 64)
	rp.Strategy = Repartition
	res, err := oneRound(NewRRTEngine(s, geom.V(0.3, 0.7, 0.5), rp))
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightActualCorr > 0.85 {
		t.Fatalf("k-ray weight unexpectedly good: corr=%v", res.WeightActualCorr)
	}
}

func TestParallelRRTDeterministic(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	a, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), rrtOpts(4, 24)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), rrtOpts(4, 24)))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalNodes() != b.TotalNodes() || a.TotalTime != b.TotalTime {
		t.Fatal("RRT runs with same seed should be identical")
	}
}

func TestHostPrePassIdenticalResults(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	base := quickOpts(4, 64)
	seq, err := oneRound(NewPRMEngine(s, base))
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.HostWorkers = 4
	conc, err := oneRound(NewPRMEngine(s, par))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Roadmap.NumNodes() != conc.Roadmap.NumNodes() ||
		seq.Roadmap.NumEdges() != conc.Roadmap.NumEdges() {
		t.Fatalf("host pre-pass changed the roadmap: %d/%d vs %d/%d",
			seq.Roadmap.NumNodes(), seq.Roadmap.NumEdges(),
			conc.Roadmap.NumNodes(), conc.Roadmap.NumEdges())
	}
	if seq.TotalTime != conc.TotalTime {
		t.Fatalf("host pre-pass changed virtual time: %v vs %v", seq.TotalTime, conc.TotalTime)
	}
}

func TestRRTHostPrePassIdentical(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	base := rrtOpts(4, 24)
	seq, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), base))
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.HostWorkers = 3
	conc, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), par))
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalNodes() != conc.TotalNodes() || seq.TotalTime != conc.TotalTime {
		t.Fatal("host pre-pass changed RRT results")
	}
}

func TestRRTExtractPath(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	root := geom.V(0.5, 0.5, 0.5)
	opts := rrtOpts(4, 32)
	opts.NodesPerRegion = 20
	res, err := oneRound(NewRRTEngine(s, root, opts))
	if err != nil {
		t.Fatal(err)
	}
	goal := geom.V(0.7, 0.6, 0.5)
	var c cspace.Counters
	path, ok := BuildTreeIndex(res).ExtractPath(s, goal, &c)
	if !ok {
		t.Fatal("free-space goal near the root should be reachable")
	}
	if !path[0].Equal(root, 1e-9) {
		t.Fatalf("path must start at root, got %v", path[0])
	}
	if !path[len(path)-1].Equal(goal, 1e-9) {
		t.Fatal("path must end at goal")
	}
	if !cspace.PathValid(s, path, nil) {
		t.Fatal("extracted path invalid")
	}
	if c.KNNQueries == 0 {
		t.Fatal("extraction work not metered")
	}
}

func TestRRTExtractPathInvalidGoal(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	res, err := oneRound(NewRRTEngine(s, geom.V(0.05, 0.05, 0.05), rrtOpts(4, 24)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := BuildTreeIndex(res).ExtractPath(s, geom.V(0.5, 0.5, 0.5), nil); ok {
		t.Fatal("goal inside the obstacle must fail")
	}
}

func TestNarrowPassageSamplerInPipeline(t *testing.T) {
	// The bridge sampler yields fewer but better-placed nodes; the
	// pipeline must accept it and keep load accounting consistent.
	s := cspace.NewPointSpace(env.MedCube())
	opts := quickOpts(4, 64)
	opts.SamplesPerRegion = 12
	opts.Sampler = cspace.MixedSampler{
		Primary:   cspace.UniformSampler{},
		Secondary: cspace.GaussianSampler{},
		Fraction:  0.5,
	}
	res, err := oneRound(NewPRMEngine(s, opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.Roadmap.NumNodes() == 0 {
		t.Fatal("mixed sampler produced no nodes")
	}
	var loadSum float64
	for _, l := range res.NodeLoads {
		loadSum += l
	}
	if int(loadSum) != res.Roadmap.NumNodes() {
		t.Fatal("load accounting inconsistent with custom sampler")
	}
	// All roadmap nodes must be valid.
	for i := 0; i < res.Roadmap.NumNodes(); i++ {
		// Sampling ran under the mixed strategy; every accepted node is
		// validity-checked by construction, spot-check a few.
		if i%17 == 0 && !s.Valid(res.Roadmap.G.Vertex(graph.ID(i)).Q, nil) {
			t.Fatalf("node %d invalid", i)
		}
	}
}

func TestParallelRRTStar(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	root := geom.V(0.5, 0.5, 0.5)
	base := rrtOpts(4, 24)
	plain, err := oneRound(NewRRTEngine(s, root, base))
	if err != nil {
		t.Fatal(err)
	}
	star := base
	star.Star = true
	starRes, err := oneRound(NewRRTEngine(s, root, star))
	if err != nil {
		t.Fatal(err)
	}
	if starRes.Rewires == 0 {
		t.Fatal("RRT* in free space should rewire")
	}
	if plain.Rewires != 0 {
		t.Fatal("plain RRT must not rewire")
	}
	// RRT* does strictly more work per node, so the growth phase costs more.
	if starRes.Phases.NodeConnection <= plain.Phases.NodeConnection {
		t.Fatalf("RRT* growth %v should exceed plain %v",
			starRes.Phases.NodeConnection, plain.Phases.NodeConnection)
	}
}

func TestRRTOptionsValidation(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	bad := rrtOpts(4, 2) // Regions < Procs
	if _, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), bad)); err == nil {
		t.Fatal("Regions < Procs should fail for RRT too")
	}
}

package core

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
)

// growN runs n engine rounds, failing the test on any error.
func growPRM(t *testing.T, e *PRMEngine, n int) *PRMResult {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	return e.Result()
}

func growRRT(t *testing.T, e *RRTEngine, n int) *RRTResult {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	return e.Result()
}

// constructCVs extracts the per-round construct-phase busy-time CV from
// the retained phase reports (which keep worker stats; per-task maps are
// trimmed).
func constructCVs(reports []PhaseReport) []float64 {
	var out []float64
	for _, pr := range reports {
		if pr.Phase != "construct" {
			continue
		}
		busy := make([]float64, len(pr.Report.Workers))
		for i, w := range pr.Report.Workers {
			busy[i] = w.Busy
		}
		out = append(out, metrics.CV(busy))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestCostModelContentInvariant: the cost model and the diffusive
// rebalance change WHO does the work, never WHAT is computed — every
// CostModel × Rebalance combination commits the identical roadmap.
func TestCostModelContentInvariant(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	type combo struct {
		name string
		cm   CostModelKind
		rb   RebalanceKind
	}
	combos := []combo{
		{"static-none", CostStatic, RebalanceNone},
		{"static-diffusive", CostStatic, RebalanceDiffusive},
		{"observed-none", CostObserved, RebalanceNone},
		{"observed-diffusive", CostObserved, RebalanceDiffusive},
	}
	var nodes, edges int
	for i, c := range combos {
		opts := quickOpts(4, 64)
		opts.Strategy = Repartition
		opts.CostModel = c.cm
		opts.Rebalance = c.rb
		e, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := growPRM(t, e, 3)
		if i == 0 {
			nodes, edges = res.Roadmap.NumNodes(), res.Roadmap.NumEdges()
			continue
		}
		if res.Roadmap.NumNodes() != nodes || res.Roadmap.NumEdges() != edges {
			t.Errorf("%s: roadmap %d nodes/%d edges, want %d/%d",
				c.name, res.Roadmap.NumNodes(), res.Roadmap.NumEdges(), nodes, edges)
		}
	}
}

// TestCostModelRoundZeroColdStartIdentical: with no observations yet the
// observed model falls back to the static estimator, so a single round
// is bit-identical across cost models (the engines' round-0 == one-shot
// guarantee survives the new options).
func TestCostModelRoundZeroColdStartIdentical(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	static := quickOpts(4, 64)
	static.Strategy = Repartition
	observed := static
	observed.CostModel = CostObserved

	a, err := oneRound(NewPRMEngine(s, static))
	if err != nil {
		t.Fatal(err)
	}
	b, err := oneRound(NewPRMEngine(s, observed))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("round-0 virtual time diverged: static %v observed %v", a.TotalTime, b.TotalTime)
	}
	if a.CVAfter != b.CVAfter {
		t.Fatalf("round-0 CV diverged: static %v observed %v", a.CVAfter, b.CVAfter)
	}
}

// TestObservedCostWeightsTrackMeasuredWork: from round 1 on, the RRT
// engine's repartition weights under CostObserved are the EWMA of
// measured branch costs, so their correlation with the next round's
// actual costs must beat the static k-ray estimate's (the paper's
// poor-estimator result, closed). Both runs are deterministic, so the
// comparison is stable.
func TestObservedCostWeightsTrackMeasuredWork(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	root := geom.V(0.5, 0.5, 0.5)

	static := rrtOpts(8, 64)
	static.Strategy = Repartition
	eStatic, err := NewRRTEngine(s, root, static)
	if err != nil {
		t.Fatal(err)
	}
	resStatic := growRRT(t, eStatic, 4)

	observed := static
	observed.CostModel = CostObserved
	eObs, err := NewRRTEngine(s, root, observed)
	if err != nil {
		t.Fatal(err)
	}
	resObs := growRRT(t, eObs, 4)

	if resObs.WeightActualCorr <= resStatic.WeightActualCorr {
		t.Errorf("observed-cost weight correlation %.3f should beat k-ray %.3f",
			resObs.WeightActualCorr, resStatic.WeightActualCorr)
	}
	// Forest content must match: weights only move ownership.
	if resObs.TotalNodes() != resStatic.TotalNodes() {
		t.Errorf("total nodes diverged: observed %d static %d", resObs.TotalNodes(), resStatic.TotalNodes())
	}
	// Observed mode repartitions every warm round, so migrations can
	// exceed the static single-shot round-0 count; at minimum the model
	// must have been consulted (RegionCosts populated every round).
	for i, rc := range resObs.RegionCosts {
		if rc.Count != 4 {
			t.Fatalf("region %d observed %d construct rounds, want 4", i, rc.Count)
		}
		if rc.Sum < 0 || rc.Max > rc.Sum {
			t.Fatalf("region %d inconsistent summary %+v", i, rc)
		}
	}
}

// TestObservedCostWeightsCutPRMImbalance: PRM repartitioning on observed
// construct costs must balance the expensive phase better than
// sample-count weighting from round 1 on, on an environment where
// per-sample connection cost varies by region (sample counts are a
// proxy for task count; observed costs measure the actual work). On
// cost-homogeneous environments sample counts remain competitive — see
// EXPERIMENTS.md for the full comparison.
func TestObservedCostWeightsCutPRMImbalance(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed())
	static := quickOpts(8, 128)
	static.SamplesPerRegion = 5
	static.Strategy = Repartition

	eStatic, err := NewPRMEngine(s, static)
	if err != nil {
		t.Fatal(err)
	}
	resStatic := growPRM(t, eStatic, 4)

	observed := static
	observed.CostModel = CostObserved
	eObs, err := NewPRMEngine(s, observed)
	if err != nil {
		t.Fatal(err)
	}
	resObs := growPRM(t, eObs, 4)

	// Round 0 is identical (cold start); compare the warm rounds.
	cvStatic := mean(constructCVs(resStatic.PhaseReports)[1:])
	cvObs := mean(constructCVs(resObs.PhaseReports)[1:])
	if cvObs >= cvStatic {
		t.Errorf("observed-cost construct CV %.4f should beat sample-count %.4f", cvObs, cvStatic)
	}
	if resObs.Roadmap.NumNodes() != resStatic.Roadmap.NumNodes() {
		t.Errorf("roadmap diverged: %d vs %d nodes", resObs.Roadmap.NumNodes(), resStatic.Roadmap.NumNodes())
	}
}

// TestDiffusiveRebalanceMovesOwnership: with no bulk repartitioner, the
// diffusive step is the only balancer; on a skewed environment it must
// move regions off the loaded processors and leave the committed roadmap
// identical to a run without it.
func TestDiffusiveRebalanceMovesOwnership(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	plain := quickOpts(8, 128)
	plain.SamplesPerRegion = 5
	ePlain, err := NewPRMEngine(s, plain)
	if err != nil {
		t.Fatal(err)
	}
	resPlain := growPRM(t, ePlain, 3)

	diff := plain
	diff.CostModel = CostObserved
	diff.Rebalance = RebalanceDiffusive
	eDiff, err := NewPRMEngine(s, diff)
	if err != nil {
		t.Fatal(err)
	}
	resDiff := growPRM(t, eDiff, 3)

	if resDiff.DiffusedRegions == 0 {
		t.Fatal("diffusive rebalance moved nothing on a skewed workload")
	}
	if resDiff.Roadmap.NumNodes() != resPlain.Roadmap.NumNodes() ||
		resDiff.Roadmap.NumEdges() != resPlain.Roadmap.NumEdges() {
		t.Fatalf("diffusion changed the roadmap: %d/%d vs %d/%d nodes/edges",
			resDiff.Roadmap.NumNodes(), resDiff.Roadmap.NumEdges(),
			resPlain.Roadmap.NumNodes(), resPlain.Roadmap.NumEdges())
	}
	// Redistribution cost is charged for the moves.
	if resDiff.Phases.Redistribution <= 0 {
		t.Fatal("diffusive moves should charge migration cost")
	}
}

// TestPhaseReportsTrimmedAndRegionCostsBounded pins the retention
// contract: retained phase reports drop their per-task records (the memory
// fix), and the bounded per-region summary carries the per-region cost
// detail instead.
func TestPhaseReportsTrimmedAndRegionCostsBounded(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	opts := quickOpts(4, 64)
	e, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := growPRM(t, e, 2)
	if len(res.PhaseReports) == 0 {
		t.Fatal("no phase reports retained")
	}
	for i, pr := range res.PhaseReports {
		rep := pr.Report
		if rep.Tasks != nil {
			t.Fatalf("phase %q report %d retained %d per-task records", pr.Phase, i, len(rep.Tasks))
		}
		if len(rep.Workers) == 0 {
			t.Fatalf("phase %q report %d lost its worker stats", pr.Phase, i)
		}
	}
	if len(res.RegionCosts) != res.RegionGraph.NumRegions() {
		t.Fatalf("RegionCosts len %d, want %d", len(res.RegionCosts), res.RegionGraph.NumRegions())
	}
	var total float64
	for i, rc := range res.RegionCosts {
		if rc.Count != 2 {
			t.Fatalf("region %d counted %d construct tasks, want 2 (one per round)", i, rc.Count)
		}
		if rc.Max > rc.Sum || rc.Sum < 0 {
			t.Fatalf("region %d inconsistent summary %+v", i, rc)
		}
		if got, want := rc.Mean(), rc.Sum/2; got != want {
			t.Fatalf("region %d mean %v, want %v", i, got, want)
		}
		total += rc.Sum
	}
	if total <= 0 {
		t.Fatal("no construct cost recorded in RegionCosts")
	}
}

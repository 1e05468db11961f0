package experiments

import (
	"fmt"
	"slices"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/model"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
	"parmp/internal/work"
)

// modelSamples is the measured half of Fig 4: the model environment's
// point space, its region grid, and per-region weights from actually
// sampling each region (independent of P).
func modelSamples(sc Scale, m model.Model) (*cspace.Space, *region.Graph, []float64) {
	s := cspace.NewPointSpace(m.Env())
	rg := m.Regions()
	counts := make([]int, rg.NumRegions())
	params := prm.Params{SamplesPerRegion: sc.SamplesPerRegion, K: 4}
	for i := range counts {
		nodes, _ := prm.SampleRegion(s, rg.Region(i).Box, i, params, rng.Derive(sc.Seed, uint64(i)))
		counts[i] = len(nodes)
	}
	return s, rg, repart.SampleCountWeights(counts)
}

// pctDrop is the percentage by which after improves on before, 0 when it
// does not.
func pctDrop(before, after float64) float64 {
	if before > 0 && after < before {
		return 100 * (before - after) / before
	}
	return 0
}

// fig4a reproduces Figure 4(a): coefficient of variation of the model
// environment — model-predicted imbalance (V_free, naive partition),
// model-predicted best balance, experimentally measured imbalance
// (sample counts, naive) and after repartitioning.
func fig4a(sc Scale) *metrics.Table {
	m := model.Model{Blocked: 0.24, Grid: sc.ModelGrid}
	t := newTable("Fig 4(a): Coefficient of Variation of Model Environment", "procs",
		"model-imbalance", "model-improvement", "experimental-imbalance", "repartitioning-improvement")
	_, rg, weights := modelSamples(sc, m)
	for _, p := range sc.ModelProcs {
		region.NaiveColumnPartition(rg, p)
		expNaive := repart.CoefficientOfVariation(weights, rg.Owner, p)
		expBest := repart.CoefficientOfVariation(weights, repart.GreedyLPT(weights, p), p)
		t.AddRow(float64(p), m.NaiveCV(p), m.BestCV(p), expNaive, expBest)
	}
	return t
}

// fig4b reproduces Figure 4(b): percentage improvement on the model
// environment — theoretical (unit free area), experimental (number of
// samples on the most-loaded processor) and runtime (load-balanced phase
// execution time).
func fig4b(sc Scale) *metrics.Table {
	m := model.Model{Blocked: 0.24, Grid: sc.ModelGrid}
	t := newTable("Fig 4(b): Theoretical Improvement and Experimental Speedup (Model Env)", "procs",
		"theoretical-pct", "experimental-pct", "runtime-pct")
	s, rg, weights := modelSamples(sc, m)
	for _, p := range sc.ModelImpProcs {
		// Experimental: reduction in max per-proc sample count.
		region.NaiveColumnPartition(rg, p)
		expPct := pctDrop(metrics.Max(repart.Loads(weights, rg.Owner, p)),
			metrics.Max(repart.Loads(weights, repart.GreedyLPT(weights, p), p)))

		// Runtime: improvement of the node-connection phase.
		opts := core.Options{
			Procs: p, Regions: sc.ModelGrid * sc.ModelGrid,
			SamplesPerRegion: sc.SamplesPerRegion, ConnectK: 4, BoundaryK: 1,
			Profile: work.OpteronCluster(), Seed: sc.Seed,
		}
		base := grow(must(core.NewPRMEngine(s, opts)), 1)
		opts.Strategy = core.Repartition
		opts.Partitioner = core.PartitionLPT
		rp := grow(must(core.NewPRMEngine(s, opts)), 1)
		t.AddRow(float64(p), m.TheoreticalImprovement(p), expPct,
			pctDrop(base.Phases.NodeConnection, rp.Phases.NodeConnection))
	}
	return t
}

// fig5a reproduces Figure 5(a): PRM execution time with all load
// balancing techniques in the med-cube environment on Hopper (strong
// scaling).
func fig5a(sc Scale) *metrics.Table {
	return sweep("Fig 5(a): PRM Execution Time, med-cube, Hopper", "procs",
		sc.PRMProcs, prmSeries, func(p int, st series) float64 {
			return prmRound(sc, env.MedCube(), work.Hopper(), p, st).TotalTime
		})
}

// fig5b reproduces Figure 5(b): coefficient of variation of PRM roadmap
// node loads before and after repartitioning, med-cube on Hopper.
func fig5b(sc Scale) *metrics.Table {
	t := newTable("Fig 5(b): CV of PRM Load Before/After Repartitioning, med-cube, Hopper", "procs",
		"before-repartitioning", "after-repartitioning")
	for _, p := range sc.PRMProcs {
		res := prmRound(sc, env.MedCube(), work.Hopper(), p, repartLB)
		t.AddRow(float64(p), res.CVBefore, res.CVAfter)
	}
	return t
}

// fig5c reproduces Figure 5(c): the per-processor roadmap-node load
// profile at a fixed processor count, med-cube on Hopper: without load
// balancing, with repartitioning, and the ideal (uniform) distribution.
func fig5c(sc Scale) *metrics.Table {
	p := sc.ProfileProcs
	t := newTable(fmt.Sprintf("Fig 5(c): PRM Load Profile at %d procs, med-cube, Hopper", p), "proc",
		"without-lb", "repartitioning", "ideal")
	base := prmRound(sc, env.MedCube(), work.Hopper(), p, noLB)
	rp := prmRound(sc, env.MedCube(), work.Hopper(), p, repartLB)
	ideal := metrics.Sum(base.NodeLoads) / float64(p)
	// Sort descending so the profile shape (spread vs flat) is evident,
	// as in the paper's plot.
	baseLoads, rpLoads := sortedDesc(base.NodeLoads), sortedDesc(rp.NodeLoads)
	for i := 0; i < p; i++ {
		t.AddRow(float64(i), baseLoads[i], rpLoads[i], ideal)
	}
	return t
}

func sortedDesc(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	slices.Reverse(out)
	return out
}

// fig6 reproduces Figure 6: PRM execution time at high processor counts
// (up to 3072 in the full scale), med-cube on Hopper, NoLB vs
// repartitioning.
func fig6(sc Scale) *metrics.Table {
	sc.PRMRegions = sc.PRMHighRegions
	return sweep("Fig 6: PRM Execution Time at High Scale, med-cube, Hopper", "procs",
		sc.PRMHighProcs, []series{noLB, repartLB}, func(p int, st series) float64 {
			return prmRound(sc, env.MedCube(), work.Hopper(), p, st).TotalTime
		})
}

// fig7a reproduces Figure 7(a): the phase breakdown (region connection,
// node connection, other) for each load balancing policy at a fixed
// processor count, med-cube on Hopper. Rows are strategies in prmSeries
// order.
func fig7a(sc Scale) *metrics.Table {
	p := sc.ProfileProcs
	t := newTable(fmt.Sprintf("Fig 7(a): PRM Phase Breakdown at %d procs, med-cube, Hopper", p), "strategy#",
		"region-connection", "node-connection", "other")
	for i, st := range prmSeries {
		ph := prmRound(sc, env.MedCube(), work.Hopper(), p, st).Phases
		t.AddRow(float64(i), ph.RegionConnection, ph.NodeConnection,
			ph.Setup+ph.Sampling+ph.Redistribution+ph.Other)
		t.Notes = append(t.Notes, fmt.Sprintf("strategy %d = %s", i, st.label))
	}
	return t
}

// fig7b reproduces Figure 7(b): remote accesses during the region
// connection phase at a fixed processor count — region-graph and
// roadmap-graph accesses, NoLB vs repartitioning.
func fig7b(sc Scale) *metrics.Table {
	p := sc.RemoteProcs
	t := newTable(fmt.Sprintf("Fig 7(b): Remote Accesses in Region Connection at %d procs, med-cube, Hopper", p),
		"strategy#", "region-graph", "roadmap-graph")
	for i, st := range []series{relabel(noLB, "no-lb"), repartLB} {
		res := prmRound(sc, env.MedCube(), work.Hopper(), p, st)
		t.AddRow(float64(i), float64(res.RegionRemote), float64(res.RoadmapRemote))
		t.Notes = append(t.Notes, fmt.Sprintf("strategy %d = %s", i, st.label))
	}
	return t
}

// fig8 reproduces Figure 8: PRM execution time with all load balancing
// strategies on the Opteron cluster in (a) med-cube, (b) small-cube and
// (c) free environments.
func fig8(sc Scale) []*metrics.Table {
	panel := func(title string, e *env.Environment) *metrics.Table {
		return sweep(title, "procs", sc.OpteronProcs, prmSeries, func(p int, st series) float64 {
			return prmRound(sc, e, work.OpteronCluster(), p, st).TotalTime
		})
	}
	return []*metrics.Table{
		panel("Fig 8(a): PRM Execution Time, med-cube, Opteron", env.MedCube()),
		panel("Fig 8(b): PRM Execution Time, small-cube, Opteron", env.SmallCube()),
		panel("Fig 8(c): PRM Execution Time, free, Opteron", env.Free()),
	}
}

// fig9 reproduces Figure 9: per-processor counts of stolen vs locally
// executed tasks under HYBRID work stealing at two processor counts,
// med-cube on Hopper.
func fig9(sc Scale) []*metrics.Table {
	out := make([]*metrics.Table, 0, 2)
	for _, p := range sc.Fig9Procs {
		res := prmRound(sc, env.MedCube(), work.Hopper(), p, hybridWS)
		t := newTable(fmt.Sprintf("Fig 9: Stolen vs Non-Stolen Tasks on %d procs, med-cube, Hopper", p), "proc",
			"stolen", "non-stolen")
		for i, ps := range res.ProcStats {
			t.AddRow(float64(i), float64(ps.TasksStolen), float64(ps.TasksLocal))
		}
		out = append(out, t)
	}
	return out
}

// fig10 reproduces Figure 10: radial RRT execution time with work
// stealing strategies on the Opteron cluster in (a) mixed (60 % blocked),
// (b) mixed-30 (with repartitioning, showing its failure mode) and
// (c) free environments.
func fig10(sc Scale) []*metrics.Table {
	panel := func(title string, e *env.Environment, ss []series) *metrics.Table {
		s := robotSpace(e)
		return sweep(title, "procs", sc.RRTProcs, ss, func(p int, st series) float64 {
			return grow(must(core.NewRRTEngine(s, rrtRoot(), st.apply(rrtOpts(sc, p, work.OpteronCluster())))), 1).TotalTime
		})
	}
	return []*metrics.Table{
		panel("Fig 10(a): Radial RRT Execution Time, mixed, Opteron", env.Mixed(), rrtSeries),
		panel("Fig 10(b): Radial RRT Execution Time, mixed-30, Opteron", env.Mixed30(),
			append(slices.Clone(rrtSeries), repartLB)),
		panel("Fig 10(c): Radial RRT Execution Time, free, Opteron", env.Free(), rrtSeries),
	}
}

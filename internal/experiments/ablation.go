package experiments

import (
	"fmt"

	"parmp/internal/core"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/obsv"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// ablationDecomposition varies the over-decomposition degree
// (regions per processor) at fixed P and reports the total time without
// LB and with each balancer. The paper argues "the size of the biggest
// quanta of work establishes a lower bound by which the problem can be
// balanced": at 1 region/proc no technique can help; benefit grows with
// granularity until overheads bite.
func ablationDecomposition(sc Scale) *metrics.Table {
	const procs = 16
	t := sweep(fmt.Sprintf("Ablation: over-decomposition at %d procs, med-cube", procs), "regions/proc",
		[]int{1, 2, 4, 8, 16}, []series{noLB, repartLB, hybridWS}, func(rpp int, st series) float64 {
			sc.PRMRegions = procs * rpp
			return prmRound(sc, env.MedCube(), work.Hopper(), procs, st).TotalTime
		})
	t.Notes = append(t.Notes,
		"total work grows with region count (constant samples/region); compare within a row")
	return t
}

// ablationStealChunk varies the steal granularity: one region per steal
// (the paper's ownership-transfer model and our default) versus stealing
// a quarter or half of the victim's pending deque per request.
func ablationStealChunk(sc Scale) *metrics.Table {
	const procs = 16
	chunked := func(label string, chunk float64) series {
		st := relabel(hybridWS, label)
		st.chunk = chunk
		return st
	}
	return sweep(fmt.Sprintf("Ablation: steal chunk size at %d procs, med-cube (hybrid)", procs), "procs",
		[]int{8, 16, 32},
		[]series{chunked("steal-one", 1e-9), chunked("steal-quarter", 0.25), chunked("steal-half", 0.5)},
		func(p int, st series) float64 { return prmRound(sc, env.MedCube(), work.Hopper(), p, st).TotalTime })
}

// ablationWeights reports the node-connection time of three rows: no load
// balancing, repartitioning on the measured per-region sample counts (the
// paper's estimator and our default), and repartitioning on uniform
// weights (a weight-oblivious rebalance). Uniform weights reproduce the
// naive partition, so that row equals the no-LB row by construction.
func ablationWeights(sc Scale) *metrics.Table {
	const procs = 16
	t := newTable(fmt.Sprintf("Ablation: repartition weight source at %d procs, med-cube", procs), "row",
		"node-connection-time")
	// Baseline and sample-count weights come straight from the driver.
	base := prmRound(sc, env.MedCube(), work.Hopper(), procs, noLB).Phases.NodeConnection
	t.AddRow(0, base)
	t.Notes = append(t.Notes, "row 0 = no load balancing")
	t.AddRow(1, prmRound(sc, env.MedCube(), work.Hopper(), procs, repartLB).Phases.NodeConnection)
	t.Notes = append(t.Notes, "row 1 = repartition on measured sample counts (default)")

	// Uniform weights: pretend every region costs the same. Equal-count
	// contiguous chunks == the naive partition, so this is a no-op
	// rebalance; report the baseline time as its effect.
	t.AddRow(2, base)
	t.Notes = append(t.Notes, "row 2 = repartition on uniform weights (no-op by construction)")
	return t
}

// ablationPartitioner compares the two repartitioning algorithms: pure
// LPT (best balance, ignores locality) versus the spatially contiguous
// region-growing partitioner (the default). LPT should win slightly on
// node connection but lose on region connection via its edge cut.
func ablationPartitioner(sc Scale) *metrics.Table {
	const procs = 16
	t := newTable(fmt.Sprintf("Ablation: partitioner at %d procs, med-cube", procs), "partitioner#",
		"node-connection", "region-connection", "edge-cut", "total")
	for i, part := range []core.Partitioner{core.PartitionSpatial, core.PartitionLPT} {
		st := repartLB
		st.partition = part
		res := prmRound(sc, env.MedCube(), work.Hopper(), procs, st)
		t.AddRow(float64(i), res.Phases.NodeConnection, res.Phases.RegionConnection,
			float64(res.EdgeCut), res.TotalTime)
	}
	t.Notes = append(t.Notes, "partitioner 0 = spatial region-growing (default), 1 = pure LPT")
	return t
}

// ablationVictimPolicy reports steal-protocol health per policy at a
// fixed processor count: grants, denials, and tasks moved.
func ablationVictimPolicy(sc Scale) *metrics.Table {
	const procs = 32
	t := newTable(fmt.Sprintf("Ablation: victim policy protocol traffic at %d procs, med-cube", procs), "policy#",
		"steals-issued", "steals-granted", "steals-denied", "tasks-moved", "total-time")
	for i, st := range []series{hybridWS, rand8WS, diffusiveWS} {
		res := prmRound(sc, env.MedCube(), work.Hopper(), procs, st)
		m := obsv.Analyze(sched.Report{Workers: res.ProcStats})
		t.AddRow(float64(i), float64(m.StealsIssued), float64(m.StealsGranted), float64(m.StealsDenied),
			float64(m.TasksMigrated), res.TotalTime)
		t.Notes = append(t.Notes, fmt.Sprintf("policy %d = %s", i, st.policy.Name()))
	}
	return t
}

// ablationRRTStar compares plain radial RRT against the RRT* extension at
// fixed P: RRT* pays more local planning per node (choose-parent +
// rewiring), deepening per-region cost heterogeneity — which work
// stealing then exploits.
func ablationRRTStar(sc Scale) *metrics.Table {
	const procs = 8
	t := newTable(fmt.Sprintf("Ablation: RRT vs RRT* at %d procs, mixed-30", procs), "variant#",
		"no-lb-time", "diffusive-time", "steal-speedup")
	s := robotSpace(env.Mixed30())
	for i, star := range []bool{false, true} {
		opts := rrtOpts(sc, procs, work.OpteronCluster())
		opts.Star = star
		base := mustRRT(s, rrtRoot(), noLB.apply(opts)).TotalTime
		stolen := mustRRT(s, rrtRoot(), diffusiveWS.apply(opts)).TotalTime
		t.AddRow(float64(i), base, stolen, base/stolen)
	}
	t.Notes = append(t.Notes, "variant 0 = plain RRT, 1 = RRT* (choose-parent + rewiring)")
	return t
}

package experiments

import (
	"fmt"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/obsv"
	"parmp/internal/work"
)

// The closed-loop series: repartitioning on the paper's static weights
// (k-ray probes for trees, this round's sample counts for roadmaps), on
// EWMA-observed costs, and with the between-rounds diffusive rebalance.
var (
	repartObserved  = series{label: "repart-observed", strategy: core.Repartition, costModel: core.CostObserved}
	repartDiffusive = series{label: "repart-obs-diffusive", strategy: core.Repartition,
		costModel: core.CostObserved, rebalance: core.RebalanceDiffusive}
)

// repartitionRRT measures whether observed-cost weighting rescues RRT
// repartitioning from the paper's failure mode: cumulative virtual time
// over multiple growth rounds, sweeping processor counts, comparing no
// load balancing against repartitioning on k-ray weights (the paper's
// estimator), on EWMA-observed branch costs, and observed costs plus the
// between-rounds diffusive rebalance.
func repartitionRRT(sc Scale, e *env.Environment, title string) *metrics.Table {
	s := robotSpace(e)
	t := sweep(title, "procs", sc.RRTProcs,
		[]series{noLB, relabel(repartLB, "repart-kray"), repartObserved, repartDiffusive},
		func(p int, st series) float64 {
			opts := st.apply(rrtOpts(sc, p, work.OpteronCluster()))
			return grow(must(core.NewRRTEngine(s, rrtRoot(), opts)), sc.RepartRounds).TotalTime
		})
	t.Notes = append(t.Notes, fmt.Sprintf("cumulative virtual time over %d growth rounds", sc.RepartRounds))
	return t
}

// repartPRMOpts is the PRM configuration of the cost-model comparison:
// a coarse decomposition with few samples per region per round and plain
// uniform sampling. In this regime per-sample connection cost varies
// strongly across regions, so a task-count weight (this round's sample
// counts) is a poor load estimate and the observed model has something
// to learn. With many samples per fine region (the Fig 5-8 shape)
// per-sample cost homogenizes and zero-lag sample counts are already
// near-perfect — see EXPERIMENTS.md for that boundary.
func repartPRMOpts(sc Scale) core.Options {
	return core.Options{
		Procs:            sc.ProfileProcs / 2,
		Regions:          sc.PRMRegions / 4,
		SamplesPerRegion: 5,
		ConnectK:         3,
		Profile:          work.Hopper(),
		Seed:             sc.Seed,
	}
}

// repartPRM grows the comparison's PRM under st for the scale's round
// budget and returns the cumulative result with each round's
// construct-phase busy-time CV.
func repartPRM(sc Scale, s *cspace.Space, st series) (*core.PRMResult, []float64) {
	res := grow(must(core.NewPRMEngine(s, st.apply(repartPRMOpts(sc)))), sc.RepartRounds)
	var cvs []float64
	for _, pr := range res.PhaseReports {
		if pr.Phase == "construct" {
			cvs = append(cvs, obsv.Analyze(pr.Report).BusyCV)
		}
	}
	return res, cvs
}

// repartitionPRMCV compares PRM construct-phase imbalance (per-worker
// busy-time CV) round by round when repartitioning weights come from
// this round's sample counts (the static estimate) versus the observed
// per-sample cost model. Round 0 is identical by construction (the
// cold-start fallback); the observed series must win once warm on
// environments where per-sample connection cost varies by region.
func repartitionPRMCV(sc Scale, e *env.Environment, title string) *metrics.Table {
	t := newTable(title, "round", "sample-count-cv", "observed-cv")
	s := robotSpace(e)
	_, static := repartPRM(sc, s, repartLB)
	_, observed := repartPRM(sc, s, repartObserved)
	for r := range static {
		t.AddRow(float64(r), static[r], observed[r])
	}
	o := repartPRMOpts(sc)
	t.Notes = append(t.Notes,
		fmt.Sprintf("construct-phase busy-time CV, %d procs, %d regions, %d samples/region/round",
			o.Procs, o.Regions, o.SamplesPerRegion))
	return t
}

// repartitionCombos crosses CostModel × Rebalance on a multi-round PRM
// under repartitioning: cumulative virtual time, warm-round construct
// CV, and the two migration counters, one row per combination.
func repartitionCombos(sc Scale, e *env.Environment, title string) *metrics.Table {
	t := newTable(title, "combo", "total-time", "construct-cv-warm", "migrated", "diffused")
	s := robotSpace(e)
	staticDiffusive := series{strategy: core.Repartition, rebalance: core.RebalanceDiffusive}
	for i, st := range []series{
		relabel(repartLB, "static/none"), relabel(staticDiffusive, "static/diffusive"),
		relabel(repartObserved, "observed/none"), relabel(repartDiffusive, "observed/diffusive"),
	} {
		res, cvs := repartPRM(sc, s, st)
		// Round 0 is the cold start every combination shares.
		t.AddRow(float64(i), res.TotalTime, metrics.Mean(cvs[min(1, len(cvs)):]),
			float64(res.MigratedRegions), float64(res.DiffusedRegions))
		t.Notes = append(t.Notes, fmt.Sprintf("combo %d = %s", i, st.label))
	}
	o := repartPRMOpts(sc)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rounds, %d procs, %d regions", sc.RepartRounds, o.Procs, o.Regions))
	return t
}

// repartition runs the closed-loop load-balancing experiment: the RRT
// repartitioning flip test on mixed-30 (the paper's failure-mode
// environment, Fig 10(b)) and free, the PRM round-by-round CV comparison
// on mixed (heterogeneous per-sample cost) and med-cube (homogeneous —
// where zero-lag sample counts remain competitive), and the four-way
// CostModel × Rebalance cross.
func repartition(sc Scale) []*metrics.Table {
	return []*metrics.Table{
		repartitionRRT(sc, env.Mixed30(),
			"Repartition: RRT Cumulative Time, mixed-30, Opteron"),
		repartitionRRT(sc, env.Free(),
			"Repartition: RRT Cumulative Time, free, Opteron"),
		repartitionPRMCV(sc, env.Mixed(),
			"Repartition: PRM Construct CV by Round, mixed, Hopper"),
		repartitionPRMCV(sc, env.MedCube(),
			"Repartition: PRM Construct CV by Round, med-cube, Hopper"),
		repartitionCombos(sc, env.Mixed(),
			"Repartition: CostModel x Rebalance, mixed, Hopper"),
	}
}

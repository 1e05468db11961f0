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

// The balance and repair studies are the two virtual-time contracts the
// repository holds itself to: the closed loop keeps a multi-round PRM
// balanced, and repairing a roadmap after the world moves is cheaper
// than rebuilding it. Both run one fixed shape whatever the Scale — big
// enough that imbalance, migration and repair locality actually occur,
// a few tens of milliseconds to run — so the tier-1 golden and the
// checked-in results/quick_all.txt hold the same numbers byte for byte.
const (
	contractProcs   = 8
	contractSamples = 5 // per region per round
	contractSeed    = 1

	balanceRegions = 128
	balanceRounds  = 4

	repairRegions = 64
	// repairRounds grows the initial roadmap — and each rebuild, so
	// repair is compared against re-earning an equal-effort roadmap.
	repairRounds = 3
	repairSteps  = 4 // scripted mutation steps played per scenario
)

// contractOpts is the closed-loop PRM configuration (repartitioning on
// observed costs plus the between-rounds diffusive rebalance) on Hopper.
func contractOpts(regions int) core.Options {
	return repartDiffusive.apply(core.Options{
		Procs:            contractProcs,
		Regions:          regions,
		SamplesPerRegion: contractSamples,
		ConnectK:         3,
		Profile:          work.Hopper(),
		Seed:             contractSeed,
	})
}

// balance profiles the closed-loop PRM on med-cube phase by phase: the
// per-phase imbalance factor, utilization, steal efficiency and
// busy-time CV the paper's figures are built from (internal/obsv), and
// the run's summary. Every phase replays once per round, so a report's
// position in res.PhaseReports gives its round and its phase.
func balance(Scale) []*metrics.Table {
	opts := contractOpts(balanceRegions)
	res := grow(must(core.NewPRMEngine(cspace.NewPointSpace(env.MedCube()), opts)), balanceRounds)
	perRound := len(res.PhaseReports) / balanceRounds

	prof := newTable("Balance: Closed-Loop PRM Phase Profile, med-cube, Hopper", "round",
		"phase", "makespan", "utilization", "imbalance", "steal-efficiency", "tasks-migrated", "busy-cv")
	var constructCV []float64
	for i, pr := range res.PhaseReports {
		m := obsv.Analyze(pr.Report)
		prof.AddRow(float64(i/perRound), float64(i%perRound), m.Makespan, m.Utilization,
			m.Imbalance, m.StealEfficiency, float64(m.TasksMigrated), m.BusyCV)
		if pr.Phase == "construct" {
			constructCV = append(constructCV, m.BusyCV)
		}
	}
	for i, pr := range res.PhaseReports[:perRound] {
		prof.Notes = append(prof.Notes, fmt.Sprintf("phase %d = %s", i, pr.Phase))
	}
	prof.Notes = append(prof.Notes, fmt.Sprintf("%d procs, %d regions, %d samples/region/round, seed %d",
		opts.Procs, opts.Regions, opts.SamplesPerRegion, opts.Seed))

	sum := newTable("Balance: Closed-Loop PRM Summary, med-cube, Hopper", "rounds",
		"construct-cv", "utilization", "imbalance-max", "steal-eff-min", "total-time", "migrated", "diffused")
	sum.AddRow(balanceRounds, metrics.Mean(constructCV), metrics.Mean(prof.Column("utilization")),
		metrics.Max(prof.Column("imbalance")), metrics.Min(prof.Column("steal-efficiency")),
		res.TotalTime, float64(res.MigratedRegions), float64(res.DiffusedRegions))
	sum.Notes = append(sum.Notes,
		"construct-cv is the mean busy-time CV of every round's construct phase, utilization the mean over all phases")
	return []*metrics.Table{prof, sum}
}

// repairVsRebuild plays the scenario's scripted mutation steps on a
// grown roadmap and costs each step twice: the incremental repair
// (core.PRMEngine.ApplyDelta, the roadmap-reuse path) and the
// counterfactual, an equal-effort roadmap built from scratch in the
// mutated world.
func repairVsRebuild(sc env.Scenario) *metrics.Table {
	t := newTable("Repair vs Rebuild: "+sc.Name+", Hopper", "step",
		"checked-nodes", "checked-edges", "removed-nodes", "removed-edges",
		"repair-makespan", "rebuild-makespan", "speedup")
	opts := contractOpts(repairRegions)
	world, script := sc.BuildMoves()
	space := cspace.NewPointSpace(world)
	eng := must(core.NewPRMEngine(space, opts))
	grow(eng, repairRounds)
	for k := 0; k < repairSteps; k++ {
		// Scripted steps are relative to the poses the previous step left,
		// so each step mutates a clone of the current world.
		world = world.Clone()
		delta := must(world.ApplyMoves(script(k)))
		space = space.WithEnv(world)
		st := must(eng.ApplyDelta(space, delta, nil, nil)).Stats
		rebuilt := grow(must(core.NewPRMEngine(cspace.NewPointSpace(world), opts)), repairRounds)
		t.AddRow(float64(k), float64(st.CheckedNodes), float64(st.CheckedEdges),
			float64(st.RemovedNodes), float64(st.RemovedEdges),
			st.Makespan, rebuilt.TotalTime, rebuilt.TotalTime/st.Makespan)
	}
	speedup := t.Column("speedup")
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d procs, %d regions, %d growth rounds before the script and per rebuild, seed %d",
			opts.Procs, opts.Regions, repairRounds, opts.Seed),
		fmt.Sprintf("totals: repair %.4f, rebuild %.4f; speedup mean %.4f, min %.4f",
			metrics.Sum(t.Column("repair-makespan")), metrics.Sum(t.Column("rebuild-makespan")),
			metrics.Mean(speedup), metrics.Min(speedup)))
	return t
}

// repair is one repairVsRebuild table per scripted dynamic scenario.
func repair(Scale) []*metrics.Table {
	var out []*metrics.Table
	for _, sc := range env.Scenarios() {
		out = append(out, repairVsRebuild(sc))
	}
	return out
}

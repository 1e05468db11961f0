package core

import (
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// saltRepair keeps the repair phase's victim randomization independent
// of the construct phases'.
const saltRepair = 0x6b1d

// repairGraftK is how many surviving neighbours a severed RRT subtree
// frontier tries to regraft to.
const repairGraftK = 4

// RepairStats summarizes the incremental-repair work an engine has
// committed across ApplyDelta calls.
type RepairStats = cspace.RepairStats

// PRMRepair is the outcome of one PRMEngine.ApplyDelta.
type PRMRepair struct {
	Stats RepairStats
	// VertexRemap maps pre-repair merged-roadmap vertex ids to their
	// post-repair ids (-1 = removed). Nil means identity: no vertex and
	// no edge was removed, and Result().Roadmap is the pre-repair roadmap
	// itself, so an index built over it still stands.
	VertexRemap []int
	// TouchedVertices lists pre-repair vertex ids belonging to connected
	// components that lost a vertex or an edge — the components whose
	// labels a scoped relabel must recompute (prm.RepairIndex).
	TouchedVertices []int
}

// applyDelta incrementally repairs the committed structure against an
// environment mutation, between growth rounds. s is the engine's space
// re-bound to the mutated environment (cspace.Space.WithEnv on a mutated
// clone — the old space, and any snapshot holding it, must stay
// unchanged); future GrowRound calls plan in the new world.
//
// Repair tasks run through the same phase pipeline as construction —
// one task per region, stealable, virtually timed — so the repair load
// (concentrated around the mutated obstacle, the paper's skewed-workload
// shape) is balanced like any other phase: first every region
// re-validates against only the delta (conservatively culled), then the
// cross-region connectors, which can cross the delta even when both
// regions' own repair was empty. Cancellation matches GrowRound: on a
// fired stop channel applyDelta returns ErrStopped and the committed
// state, the cost model and the published result are untouched.
func (e *engine) applyDelta(s *cspace.Space, d env.Delta, stop <-chan struct{}) (RepairStats, error) {
	opts, pl, rg := e.opts, e.pl, e.rg
	n := rg.NumRegions()
	// The phase-report log belongs to growth rounds: a repair's makespan
	// and counts live in RepairStats, and retaining its two reports per
	// call would grow a long-lived mutated engine without bound. The log
	// ends a repair where it began, committed or aborted.
	reportMark := len(pl.reports)
	abort := e.begin(stop)
	defer e.end()

	st := RepairStats{Deltas: 1}
	// A removal-only (or empty) delta invalidates nothing: there is
	// nothing to re-check, but the world still changes — future rounds
	// see the freed space.
	if dc := cspace.NewDeltaChecker(e.s, d); dc.Invalidating() {
		queues := queuesByOwner(opts.Procs, rg.Owner, n, func(i int) work.Task { return e.p.repairTask(s, dc, i) })
		report := pl.run(phaseSpec{name: "repair", queues: queues, policy: opts.Policy, salt: saltRepair})
		if report.Stopped || sched.Canceled(stop) {
			return RepairStats{}, abort()
		}
		st.Makespan = report.Makespan + pl.barrier()

		regions := e.p.connectors()
		connTime, ok := e.costPhase(e.connectorPhase, len(regions), func(idx int) cspace.Counters {
			return e.p.recheckConnector(dc, idx)
		}, func(idx int, cost float64) (int, float64) { return rg.Owner[regions[idx]], cost })
		if !ok {
			return RepairStats{}, abort()
		}
		st.Makespan += connTime

		// --- Commit. Nothing above mutated committed state.
		e.p.commitRepair(&st)
		if e.repairFeedsModel {
			pl.observe(regionCosts(n, report), perRegion(n))
		}
	}
	pl.reports = pl.reports[:reportMark]
	e.s = s
	e.stats.Repairs.Add(st)
	e.stats.Phases.Repair += st.Makespan
	e.publish()
	return st, nil
}

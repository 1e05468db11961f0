package core

import (
	"errors"
	"slices"

	"parmp/internal/cspace"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// ErrStopped reports that a growth round was canceled at a cooperative
// checkpoint. The engine discards the aborted round's partial buffers,
// so the last committed result (and any snapshot built from it) stays
// valid — cancellation never tears state.
var ErrStopped = errors.New("core: growth round canceled")

// roundSalt derives the per-region RNG stream id for a growth round: the
// round number in the high bits, the region index in the low, so every
// round samples an independent, deterministic stream.
func roundSalt(round, i int) uint64 {
	return uint64(round)<<32 | uint64(i)
}

// RunStats is the planner-independent part of a result: the load-balance
// accounting the round driver accumulates identically for every planner.
// PRMResult and RRTResult embed it, so its fields read as their own.
type RunStats struct {
	// RegionGraph is the ownership this result was committed under, over
	// the engine's regions, which never change after construction: later
	// rounds and repairs move the engine's ownership, never this copy.
	RegionGraph *region.Graph
	Phases      PhaseBreakdown
	// TotalTime is the virtual makespan of the whole pipeline.
	TotalTime float64
	// ProcStats is the construction-phase execution profile.
	ProcStats []sched.WorkerStats
	// PhaseReports holds the virtual-time runtime report of every phase of
	// every growth round, in replay order, so per-phase load-balance
	// metrics (internal/obsv) derive from a finished run without
	// re-executing it. Repairs add none (see Repairs).
	PhaseReports []PhaseReport
	// NodeLoads[p] counts roadmap / tree nodes on processor p after the
	// run — the paper's load-profile quantity (Fig. 5(c)).
	NodeLoads []float64
	// CVBefore/CVAfter are the load coefficients of variation under the
	// naive partition and the final ownership (Fig. 5(b)).
	CVBefore, CVAfter float64
	// RegionRemote counts region-graph edges whose connection attempt
	// crossed processors (Fig. 7(b)).
	RegionRemote int
	EdgeCut      int
	// MigratedRegions counts ownership transfers due to repartitioning;
	// DiffusedRegions those due to the between-rounds diffusive rebalance
	// (Options.Rebalance).
	MigratedRegions int
	DiffusedRegions int
	// RegionCosts[i] summarizes region i's observed construct-phase task
	// costs over all committed rounds (count/sum/max; see RegionCost).
	// The bounded replacement for the per-task records the retained
	// PhaseReports drop.
	RegionCosts []RegionCost
	// Repairs summarizes the incremental-repair work committed by
	// ApplyDelta calls (zero while the world never mutates).
	Repairs RepairStats
}

// estimate is a planner's answer to "what should this round balance
// on": region i weighs its cost per unit times its units
// (pipeline.weights).
type estimate struct {
	// units is each region's work volume this round: PRM's fresh sample
	// counts, one per region for the trees (perRegion). The observed cost
	// model learns cost per unit over the same units.
	units []int
	// perUnit is the planner's static cost per unit (the trees' round-0
	// k-ray probe); nil means 1. Under CostObserved the model's cost per
	// unit replaces it once warm.
	perUnit []float64
	// payload is the vertex count each region carries if it migrates.
	payload []int
	// fresh reports that a pipeline phase produced the estimate this
	// round, so weighing ends at a barrier whether or not anything
	// migrates. A stale estimate re-weighs only through the observed cost
	// model, and pays the barrier only when regions actually move.
	fresh bool
}

// perRegion is the tree planners' units: one per region, so a region's
// cost per unit is its cost.
func perRegion(n int) []int {
	units := make([]int, n)
	for i := range units {
		units[i] = 1
	}
	return units
}

// planner is what distinguishes the paper's Algorithm 1 (PRM) from
// Algorithm 2 (the radial tree planners) once the load-balancing
// skeleton is factored out: how a region samples, grows and connects,
// and how its committed structure is stored, repaired and published.
// The round driver (engine) owns everything else.
//
// Growth hooks run in the order listed, repair hooks likewise. Every
// hook before commit / commitRepair writes only round-local buffers, so
// the driver abandons a round at any checkpoint by not calling the rest.
type planner interface {
	// weigh opens growth round `round`: it resets the round-local
	// buffers and runs whatever phase produces the round's per-region
	// work estimate (PRM: sampling; trees: the round-0 k-ray probe),
	// charging it to phases. ok=false means that phase was stopped.
	weigh(round int, phases *PhaseBreakdown) (est estimate, ok bool)
	// constructTask returns region i's task for the stealable construct
	// phase (PRM node connection, tree branch growth).
	constructTask(round, i int) work.Task
	// connectPair attempts to connect adjacent regions a and b (entry idx
	// of engine.pairs) and returns the work done. Pairs run concurrently.
	connectPair(idx, a, b int) cspace.Counters
	// bookPair records pair idx's outcome in pair order, given whether
	// its regions sit on different processors, and returns how many
	// roadmap accesses the attempt made on top of the region access.
	bookPair(idx, a, b int, remote bool) int
	// commit folds the round's buffers into the committed structure.
	// weights and costs are the construct phase's per-region estimate and
	// outcome (regionCosts).
	commit(round int, weights, costs []float64)

	// repairTask returns region i's task for the stealable repair phase:
	// re-validate the region against dc, in the mutated space s.
	repairTask(s *cspace.Space, dc *cspace.DeltaChecker, i int) work.Task
	// connectors lists the committed cross-region connectors (boundary
	// edge sets, bridges) by the region whose owner re-validates them.
	connectors() []int
	// recheckConnector re-validates connector idx against dc using the
	// repair phase's outcome and returns the work done. Connectors run
	// concurrently.
	recheckConnector(dc *cspace.DeltaChecker, idx int) cspace.Counters
	// commitRepair compacts the committed structure to the survivors and
	// folds the repair's counts into st.
	commitRepair(st *RepairStats)

	// nodeCount is region i's committed node count as published.
	nodeCount(i int) int
	// publish builds the planner's immutable result around stats.
	publish(stats RunStats)
}

// engine is the round driver: one implementation of the paper's
// load-balancing framework — weigh → repartition → stealable construct
// → region connect, and its repair counterpart — serving every planner
// through the planner hooks. It owns cancellation and abort-restore,
// phase accounting, ownership, cost observation and result statistics.
//
// An engine is not safe for concurrent use; the serving layer (package
// parmp) serializes growth and publishes immutable snapshots.
type engine struct {
	s    *cspace.Space
	opts Options
	pl   *pipeline
	rg   *region.Graph
	p    planner
	// pairs lists the region graph's adjacent pairs (fixed at
	// construction), the unit of the region-connection phase.
	pairs [][2]int

	// Per-planner constants of the shared phases.
	constructSalt  uint64 // victim randomization of the construct phase
	connectorPhase string // name of the repair path's connector phase
	// pairOnEitherOwner lets a region-connection attempt run on the less
	// loaded of its two regions' owners (PRM) instead of the first's.
	pairOnEitherOwner bool
	// repairFeedsModel feeds repair-phase costs to the cost model, one
	// unit per region (tree planners, whose unit is the region, so the
	// mutation's load concentration informs the next repartition; PRM's
	// unit is a fresh sample, which a repair does not have).
	repairFeedsModel bool

	stats RunStats // statistics of the last committed result
	round int      // rounds committed so far
}

// setup wires the driver to its planner and publishes the empty result.
func (e *engine) setup(s *cspace.Space, opts Options, rg *region.Graph, p planner) {
	e.s, e.opts, e.rg, e.p = s, opts, rg, p
	e.pl = newPipeline(opts)
	rg.ForEachAdjacentPair(func(a, b int) { e.pairs = append(e.pairs, [2]int{a, b}) })
	e.stats = RunStats{RegionGraph: e.committedRegions()}
	p.publish(e.stats)
}

// committedRegions freezes the current ownership for a published result.
// The regions themselves are shared: nothing writes them after
// construction.
func (e *engine) committedRegions() *region.Graph {
	return &region.Graph{G: e.rg.G, Owner: slices.Clone(e.rg.Owner)}
}

// Rounds returns the number of committed growth rounds.
func (e *engine) Rounds() int { return e.round }

// begin arms cooperative cancellation for one GrowRound / ApplyDelta
// (callers defer end) and returns the abort that restores the
// phase-report log and region ownership to their state on entry. The
// ownership on entry is the last published one: only a commit moves it.
func (e *engine) begin(stop <-chan struct{}) (abort func() error) {
	pl := e.pl
	pl.stop = stop
	reportMark := len(pl.reports)
	return func() error {
		pl.reports = pl.reports[:reportMark]
		copy(e.rg.Owner, e.stats.RegionGraph.Owner)
		return ErrStopped
	}
}

func (e *engine) end() { e.pl.stop = nil }

// GrowRound runs one pass of the phase pipeline over the SAME region
// graph and ownership state, extending the committed roadmap or tree.
// stop, when non-nil, cancels cooperatively: the runtime backends
// observe it between tasks/events and the driver checks it at every
// phase barrier. On cancellation GrowRound returns ErrStopped and
// discards the round's partial buffers — the committed result, the
// region ownership and the cost model are untouched.
func (e *engine) GrowRound(stop <-chan struct{}) error {
	opts, pl, rg := e.opts, e.pl, e.rg
	n := rg.NumRegions()
	round := e.round
	abort := e.begin(stop)
	defer e.end()

	var phases PhaseBreakdown
	if round == 0 {
		phases.Setup = pl.barrier()
	}

	// --- Weight phase: a region weighs its cost per unit times its
	// units (pipeline.weights). Round 0 prices units at the planner's
	// static cost per unit (the cold start, bit-identical across cost
	// models); warm rounds under CostObserved at the EWMA of the cost
	// per unit observed so far, which also re-weighs — and
	// re-repartitions — the rounds whose static estimate is stale.
	est, ok := e.p.weigh(round, &phases)
	if !ok || sched.Canceled(stop) {
		return abort()
	}
	weights := pl.weights(round, est)
	var cvBefore float64
	if round == 0 {
		cvBefore = repart.CoefficientOfVariation(weights, rg.Owner, opts.Procs)
	}
	// --- Optional repartitioning before the expensive phase.
	migrated := 0
	if opts.Strategy == Repartition && (est.fresh || opts.CostModel == CostObserved) {
		var cost float64
		migrated, cost = pl.rebalance(rg, weights, est.payload)
		if est.fresh || migrated > 0 {
			phases.Redistribution = phases.Redistribution + pl.barrier() + cost
		}
	}
	if sched.Canceled(stop) {
		return abort()
	}

	// --- Construct phase (expensive; stealable), after the optional
	// between-rounds diffusive rebalance has polished the queues along
	// the steal mesh toward the weight equilibrium.
	queues := queuesByOwner(opts.Procs, rg.Owner, n, func(i int) work.Task { return e.p.constructTask(round, i) })
	diffused, diffuseCost := pl.diffuse(rg, queues, weights, est.payload)
	phases.Redistribution += diffuseCost
	report := pl.run(phaseSpec{name: "construct", queues: queues, policy: opts.Policy, salt: e.constructSalt})
	if report.Stopped || sched.Canceled(stop) {
		return abort()
	}
	phases.NodeConnection = report.Makespan + pl.barrier()
	// Work stealing permanently migrates the region and its data: record
	// the final ownership so the region-connection phase sees it. Without
	// a steal policy every task ran on its region's owner.
	for _, t := range report.Tasks {
		rg.Owner[t.ID] = t.Worker
	}

	// --- Region-connection phase: every adjacent pair's attempt runs
	// host-concurrently, then replays in virtual time on an owner of the
	// pair, priced by whether the two regions share a processor.
	connLoad := make([]float64, opts.Procs)
	regionRemote := 0
	phases.RegionConnection, ok = e.costPhase("region-connect", len(e.pairs), func(idx int) cspace.Counters {
		return e.p.connectPair(idx, e.pairs[idx][0], e.pairs[idx][1])
	}, func(idx int, cost float64) (int, float64) {
		pr := e.pairs[idx]
		ownerA, ownerB := rg.Owner[pr[0]], rg.Owner[pr[1]]
		remote := ownerA != ownerB
		access := opts.Profile.LocalAccess
		if remote {
			regionRemote++
			access = opts.Profile.RemoteAccess
		}
		cost += access * float64(1+e.p.bookPair(idx, pr[0], pr[1], remote))
		runner := ownerA
		if e.pairOnEitherOwner && connLoad[ownerB] < connLoad[ownerA] {
			runner = ownerB
		}
		connLoad[runner] += cost
		return runner, cost
	})
	if !ok {
		return abort()
	}
	phases.Other = pl.barrier()

	// --- Commit. Nothing before this point mutated committed state, so
	// an abort above left the engine on its previous result; only a
	// committed round reaches the cost model (next round's weights) and
	// the bounded per-region summary.
	costs := regionCosts(n, report)
	e.p.commit(round, weights, costs)
	pl.observe(costs, est.units)
	e.round++

	st := &e.stats
	st.ProcStats = report.Workers
	st.EdgeCut = rg.EdgeCut()
	st.RegionRemote += regionRemote
	st.MigratedRegions += migrated
	st.DiffusedRegions += diffused
	// Published results are immutable: accumulate on a fresh copy.
	summary := make([]RegionCost, n)
	copy(summary, st.RegionCosts)
	for i, c := range costs {
		rc := &summary[i]
		rc.Count, rc.Sum, rc.Max = rc.Count+1, rc.Sum+c, max(rc.Max, c)
	}
	st.RegionCosts = summary
	if round == 0 {
		st.CVBefore = cvBefore
	}
	st.Phases.add(phases)
	e.publish()
	return nil
}

// costPhase turns m independent checks into one replayed bulk-synchronous
// phase named name: the checks execute once (execute), then place,
// called in index order with check idx's virtual cost, says which
// processor pays what for it, and the charges replay in virtual time. It
// returns the phase's time — makespan plus the closing barrier — or
// ok=false when the engine was stopped meanwhile.
func (e *engine) costPhase(name string, m int, check func(idx int) cspace.Counters, place func(idx int, cost float64) (proc int, charged float64)) (time float64, ok bool) {
	pl := e.pl
	tasks := [][]work.Task{make([]work.Task, m)}
	for idx := range tasks[0] {
		tasks[0][idx] = work.Task{ID: idx, Run: func() float64 { return e.opts.Cost.Time(check(idx)) }}
	}
	if !pl.execute(name, tasks) {
		return 0, false
	}
	queues := make([][]work.Task, e.opts.Procs)
	for idx, rec := range tasks[0] {
		proc, charged := place(idx, rec.Run())
		queues[proc] = append(queues[proc], record(work.Task{ID: idx}, charged))
	}
	rep := pl.replay(phaseSpec{name: name, queues: queues})
	if rep.Stopped || sched.Canceled(pl.stop) {
		return 0, false
	}
	return rep.Makespan + pl.barrier(), true
}

// publish completes the statistics that derive from the committed
// structure and has the planner build a fresh immutable result: later
// rounds never mutate a published one, so callers may hold it (and index
// it) while the engine keeps growing.
func (e *engine) publish() {
	st := &e.stats
	st.TotalTime = st.Phases.Total()
	st.PhaseReports = e.pl.reports
	st.RegionGraph = e.committedRegions()
	nodes := make([]float64, e.rg.NumRegions())
	for i := range nodes {
		nodes[i] = float64(e.p.nodeCount(i))
	}
	st.NodeLoads = repart.Loads(nodes, st.RegionGraph.Owner, e.opts.Procs)
	st.CVAfter = metrics.CV(st.NodeLoads)
	e.p.publish(*st)
}

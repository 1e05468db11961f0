package core

import (
	"slices"

	"parmp/internal/dist"
	"parmp/internal/exec"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// Phase seed salts keep victim randomization independent across the
// pipeline's stealable phases (and across PRM vs RRT).
const (
	saltPRMConstruct     = 0x9e37
	saltRRTConstruct     = 0x51ab
	saltConnectConstruct = 0x77cd
)

// phaseSpec describes one pipeline phase as a first-class record: named
// per-processor task queues plus the steal policy governing execution.
// A nil policy makes the phase bulk-synchronous (each processor drains
// its own queue; the phase ends at the slowest one).
type phaseSpec struct {
	name   string
	queues [][]work.Task
	policy steal.Policy
	salt   uint64
}

// PhaseReport couples one pipeline phase's virtual-time runtime report
// with the phase name and its position in the replay sequence. The
// planners keep every phase's report in their results, so per-phase
// load-balance metrics (imbalance, utilization, steal efficiency — see
// internal/obsv) are derivable from a finished run without re-executing
// it.
//
// Memory bound: the retained reports drop their per-task records
// (sched.Report.Tasks) after the pipeline has derived what it needs from
// them — the cost model observes the live report before retention — so a
// result holds O(rounds × phases × workers) worker stats, not O(rounds ×
// tasks) task entries. Per-region cost detail survives in the results'
// bounded RegionCosts summary (count/sum/max per region, O(regions)
// total).
type PhaseReport struct {
	// Phase is the phase name ("sample", "construct", "weight",
	// "region-connect", ...).
	Phase string
	// Report is the scheduler runtime's execution profile for the phase.
	Report sched.Report
	// Bound is max(Σ cost / Procs, max cost) over the phase's task
	// records: no schedule of those tasks finishes sooner, so
	// Report.Makespan / Bound is how far the balancer is from ideal.
	Bound float64
}

// pipeline executes planner phases through the scheduler runtime layer:
// execute runs every task body of a phase exactly once — on the host
// executor when Options.HostWorkers > 1, otherwise in queue order on the
// caller's goroutine — and replaces each task by its record; replay then
// plays the records on the virtual-time runtime for the paper's
// load-balance accounting. Results and virtual times do not depend on
// HostWorkers: region tasks are deterministic and order-independent, so
// the replay sees the same (ID, Payload, cost) either way.
type pipeline struct {
	opts Options
	vt   sched.Runtime // virtual-time backend (default: the DES in internal/dist)
	// reports accumulates every replayed phase's runtime report, in
	// replay order, for the planner results' PhaseReports.
	reports []PhaseReport
	// stop, when non-nil, cooperatively cancels phase execution: execute
	// and the replay observe it between tasks/events and return early.
	// The engines set it per growth round from the caller's context;
	// one-shot runs leave it nil (zero overhead).
	stop <-chan struct{}
	// cm is the observed per-region cost model (CostObserved only),
	// built at the first observation. The engines feed it at commit
	// time, so an aborted round never pollutes it.
	cm *ewma
}

func newPipeline(opts Options) *pipeline {
	vt := opts.Runtime
	if vt == nil {
		vt = dist.Runtime
	}
	return &pipeline{opts: opts, vt: vt}
}

// hostPhaseObserver, when non-nil, receives each phase's host execution:
// the configuration and queues handed to the executor, and its report.
// Test hook only.
var hostPhaseObserver func(phase string, cfg sched.Config, queues [][]work.Task, rep sched.Report)

// record is task t after it ran: same ID and Payload, and a Run that
// returns the measured cost without running again. A bare task's record
// is a precomputed charge for a bulk-synchronous accounting phase.
func record(t work.Task, cost float64) work.Task {
	t.Run = func() float64 { return cost }
	return t
}

// execute runs every task of the phase exactly once and replaces it in
// place by its record: in queue order on the caller's goroutine at
// HostWorkers <= 1, else on HostWorkers executor goroutines, handed over
// with IDs renumbered to their slot (phase-local IDs need not be unique
// or dense). ok=false means the pipeline was stopped first; the queues
// are then a mix of tasks and records, to be discarded.
func (pl *pipeline) execute(name string, queues [][]work.Task) (ok bool) {
	if pl.opts.HostWorkers <= 1 {
		for _, q := range queues {
			for i, t := range q {
				if sched.Canceled(pl.stop) {
					return false
				}
				q[i] = record(t, t.Run())
			}
		}
		return true
	}
	flat := make([][]work.Task, len(queues))
	var slots []*work.Task
	for p, q := range queues {
		flat[p] = slices.Clone(q)
		for i := range q {
			flat[p][i].ID = len(slots)
			slots = append(slots, &q[i])
		}
	}
	cfg := sched.Config{Workers: pl.opts.HostWorkers, Policy: steal.RandK{K: 2}, Seed: pl.opts.Seed, Stop: pl.stop}
	rep := exec.Run(cfg, flat)
	if hostPhaseObserver != nil {
		hostPhaseObserver(name, cfg, flat, rep)
	}
	if rep.Stopped || sched.Canceled(pl.stop) {
		return false
	}
	for _, r := range rep.Tasks {
		*slots[r.ID] = record(*slots[r.ID], r.Cost)
	}
	return true
}

// stealMaxRounds bounds how many consecutive unsuccessful victim rounds a
// thief tries before giving up for good: the paper's bounded-retry
// behaviour.
const stealMaxRounds = 4

// replay plays a phase on the virtual-time runtime and returns its
// report, keeping a copy and the phase's makespan bound in the
// pipeline's phase-report log. Its tasks are records (execute), so the
// replay is pure accounting.
// The retained copy is trimmed of its per-task records (see
// PhaseReport's memory bound); the returned report is the full one, so
// same-round consumers (ownership write-back, cost observation, weight
// correlation) see every task.
func (pl *pipeline) replay(ph phaseSpec) sched.Report {
	rep := pl.vt.Run(sched.Config{
		Workers:    pl.opts.Procs,
		Profile:    pl.opts.Profile,
		Policy:     ph.policy,
		StealChunk: pl.opts.StealChunk,
		MaxRounds:  stealMaxRounds,
		Seed:       pl.opts.Seed ^ ph.salt,
		Stop:       pl.stop,
	}, ph.queues)
	sum, most := 0.0, 0.0
	for _, t := range rep.Tasks {
		sum, most = sum+t.Cost, max(most, t.Cost)
	}
	kept := rep
	kept.Tasks = nil // the log keeps the O(workers) profile only
	pl.reports = append(pl.reports, PhaseReport{Phase: ph.name, Report: kept, Bound: max(sum/float64(pl.opts.Procs), most)})
	return rep
}

// run executes a phase's tasks once, then replays their records in
// virtual time. A stop during execution returns a stopped report with
// no replay and no log entry.
func (pl *pipeline) run(ph phaseSpec) sched.Report {
	if !pl.execute(ph.name, ph.queues) {
		return sched.Report{Stopped: true}
	}
	return pl.replay(ph)
}

// RegionCost is a bounded summary of one region's observed
// construct-phase task costs across an engine's committed rounds: how
// many construct tasks the region ran, their total virtual cost, and the
// most expensive single task. It replaces retaining the full per-task
// event stream on results — O(regions) however many rounds run.
type RegionCost struct {
	Count int
	Sum   float64
	Max   float64
}

// Mean is the region's average per-round construct cost (0 before the
// first observation).
func (c RegionCost) Mean() float64 {
	if c.Count == 0 {
		return 0
	}
	return c.Sum / float64(c.Count)
}

// regionCosts folds one committed phase's records into a per-region
// cost vector, summing each record's Elapsed — the time the task
// occupied its worker, its virtual cost bit for bit on the virtual-time
// backend — under its ID, its region. It is the closed loop's one
// observation: the cost model, RegionCosts and the planner's commit all
// read it.
func regionCosts(n int, rep sched.Report) []float64 {
	costs := make([]float64, n)
	for _, t := range rep.Tasks {
		costs[t.ID] += t.Elapsed
	}
	return costs
}

// barrier prices one global barrier on the configured machine.
func (pl *pipeline) barrier() float64 {
	return pl.opts.Profile.Barrier(pl.opts.Procs)
}

// queuesByOwner shards n region tasks into per-processor queues by
// current region ownership, preserving region order within each queue.
// mk(i) must return region i's task, whose ID is i.
func queuesByOwner(procs int, owner []int, n int, mk func(i int) work.Task) [][]work.Task {
	queues := make([][]work.Task, procs)
	for i := 0; i < n; i++ {
		queues[owner[i]] = append(queues[owner[i]], mk(i))
	}
	return queues
}

// observe feeds one committed phase's per-region costs, over that
// phase's units, to the observed cost model (a no-op unless
// Options.CostModel is CostObserved). The engines call it at commit time
// only, so aborted rounds leave the model untouched.
func (pl *pipeline) observe(costs []float64, units []int) {
	if pl.opts.CostModel != CostObserved {
		return
	}
	if pl.cm == nil {
		pl.cm = newEWMA(len(costs))
	}
	pl.cm.Observe(costs, units)
}

// weights is the one weight rule: region i weighs its cost per unit
// times its units this round. The cost per unit is the planner's static
// one until the observed model is warm — from round 1 on, once it has
// observed a phase — and the model's after, so round 0 is bit-identical
// across cost models.
func (pl *pipeline) weights(round int, est estimate) []float64 {
	perUnit := est.perUnit
	if round > 0 && pl.cm != nil && pl.cm.Rounds() > 0 {
		perUnit = pl.cm.PerUnit()
	}
	w := make([]float64, len(est.units))
	for i, u := range est.units {
		w[i] = float64(u)
		if perUnit != nil {
			w[i] *= perUnit[i]
		}
	}
	return w
}

// diffuseSweeps bounds the diffusive rebalance's mesh passes per round;
// each pass terminates early once no move improves a neighbor pair.
const diffuseSweeps = 3

// diffuse applies the between-rounds diffusive rebalance to the
// construct queues: exec.Diffuse shifts region tasks along the steal
// mesh toward the weight equilibrium, then the resulting placement is
// written back as region ownership and the transfers priced like
// migrations (vertexCounts supplies the per-vertex payload). Returns the
// number of regions whose ownership moved and the migration cost; (0, 0)
// unless Options.Rebalance is RebalanceDiffusive. Unlike the bulk
// repartition there is no global barrier to charge — diffusion is
// neighbor-local, which is its point.
func (pl *pipeline) diffuse(rg *region.Graph, queues [][]work.Task, weights []float64, vertexCounts []int) (moved int, cost float64) {
	if pl.opts.Rebalance != RebalanceDiffusive {
		return 0, 0
	}
	est := func(t work.Task) float64 { return weights[t.ID] }
	if exec.Diffuse(queues, est, diffuseSweeps) == 0 {
		return 0, 0
	}
	assign := append([]int(nil), rg.Owner...)
	for p, q := range queues {
		for _, t := range q {
			assign[t.ID] = p
		}
	}
	return pl.migrate(rg, assign, vertexCounts)
}

// rebalance runs the configured partitioner over the weighted region
// graph and applies the migration plan when it meaningfully lowers the
// bottleneck load (worthRebalancing). vertexCounts, when non-nil, prices
// per-vertex migration payload (PRM samples). It returns the number of
// migrated regions and the migration cost (0, 0 when rebalancing is
// declined).
func (pl *pipeline) rebalance(rg *region.Graph, weights []float64, vertexCounts []int) (migrated int, cost float64) {
	var assign []int
	switch pl.opts.Partitioner {
	case PartitionLPT:
		assign = repart.GreedyLPT(weights, pl.opts.Procs)
	default:
		assign = repart.GreedySpatial(rg, weights, pl.opts.Procs, 0.05)
	}
	if !worthRebalancing(weights, rg.Owner, assign, pl.opts.Procs) {
		return 0, 0
	}
	return pl.migrate(rg, assign, vertexCounts)
}

// migrate moves region ownership to assign, pricing each moved region's
// payload (vertexCounts) as a migration, and returns the number of moved
// regions and the cost.
func (pl *pipeline) migrate(rg *region.Graph, assign, vertexCounts []int) (moved int, cost float64) {
	plan := repart.MakePlan(rg, assign)
	cost = plan.MigrationCost(rg, pl.opts.Profile, vertexCounts, pl.opts.Procs)
	plan.Apply(rg)
	return len(plan.Moved), cost
}

// worthRebalancing reports whether the candidate assignment lowers the
// bottleneck (maximum per-processor) load by more than a small threshold.
// Migrating for marginal gains costs more than it saves — the paper's
// free-environment experiments show effective balancers must be no-ops on
// balanced workloads.
func worthRebalancing(weights []float64, current, candidate []int, procs int) bool {
	const threshold = 0.05
	cur := metrics.Max(repart.Loads(weights, current, procs))
	return cur > 0 && metrics.Max(repart.Loads(weights, candidate, procs)) < cur*(1-threshold)
}

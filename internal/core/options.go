// Package core is the paper's primary contribution: parallel
// subdivision-based PRM and radial RRT drivers with two load balancers
// that compose — bulk-synchronous repartitioning driven by per-region
// work estimates (Options.Strategy) and adaptive work stealing with
// RAND-K / DIFFUSIVE / HYBRID victim policies (Options.Policy) — either,
// both or neither.
//
// Execution is phased exactly as in the paper:
//
//	PRM:  subdivide → sample → [weight → repartition → migrate] →
//	      node connection (stealable) → region connection → merge
//	RRT:  radial subdivide → [k-ray weight → repartition] →
//	      branch growth (stealable) → branch connection → merge
//
// The expensive phases run on a simulated distributed machine
// (internal/dist) in virtual time, with every region task charged the
// work the sequential planner actually performed, so strong-scaling
// sweeps reproduce the paper's load-balance phenomenology on any host.
package core

import (
	"fmt"

	"parmp/internal/cspace"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// Strategy selects the static balancer: whether regions are
// repartitioned before the expensive phase. Work stealing during it is
// Options.Policy's, and composes with either strategy.
type Strategy int

const (
	// NoLB keeps the naive static partition.
	NoLB Strategy = iota
	// Repartition redistributes regions bulk-synchronously using a
	// per-region work estimate before the expensive phase.
	Repartition
	// WorkStealing is NoLB.
	//
	// Deprecated: stealing is on whenever Options.Policy is set; use NoLB
	// with a Policy.
	WorkStealing
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case NoLB:
		return "no-lb"
	case Repartition:
		return "repartition"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// CostModelKind selects the per-region cost estimate driving
// repartitioning (and the diffusive rebalance equilibrium).
type CostModelKind int

const (
	// CostStatic uses the paper's static estimators: this round's sample
	// counts for PRM, the round-0 k-random-ray probe for the tree
	// planners. The paper's own result is that the k-ray estimate is
	// noisy enough to make RRT repartitioning counter-productive.
	CostStatic CostModelKind = iota
	// CostObserved closes the loop: an EWMA of each region's cost per
	// unit, over the per-region task times the scheduler actually
	// observed in prior rounds, replaces the static cost per unit from
	// round 1 on (round 0 has no observations, so it falls back to the
	// static estimator and stays bit-identical to CostStatic). With
	// CostObserved the tree planners also re-weigh and re-repartition
	// every round, not just round 0.
	CostObserved
)

// String names the cost model for reports.
func (k CostModelKind) String() string {
	switch k {
	case CostStatic:
		return "static"
	case CostObserved:
		return "observed"
	}
	return fmt.Sprintf("costmodel(%d)", int(k))
}

// RebalanceKind selects the between-rounds rebalance step applied to the
// construct phase's task queues before the round starts.
type RebalanceKind int

const (
	// RebalanceNone starts each round from the current region ownership.
	RebalanceNone RebalanceKind = iota
	// RebalanceDiffusive shifts queued construct tasks along the steal
	// mesh (steal.MeshNeighbors) toward the cost-model equilibrium before
	// the round runs — neighbor-local pairwise balancing, the scheme the
	// diffusive load-balancing literature prefers over bulk-synchronous
	// redistribution when estimates are noisy. Composes with any
	// Strategy: after a bulk repartition it polishes the residual
	// imbalance; without one it is the only balancer.
	RebalanceDiffusive
)

// String names the rebalance step for reports.
func (k RebalanceKind) String() string {
	switch k {
	case RebalanceNone:
		return "none"
	case RebalanceDiffusive:
		return "diffusive"
	}
	return fmt.Sprintf("rebalance(%d)", int(k))
}

// Partitioner selects the repartitioning algorithm.
type Partitioner int

const (
	// PartitionSpatial balances weights while preserving spatial
	// contiguity of the region graph (lower edge cut; the default).
	PartitionSpatial Partitioner = iota
	// PartitionLPT is pure longest-processing-time greedy balancing,
	// ignoring edge cuts (the paper's model-analysis partitioner).
	PartitionLPT
)

// Options configures a parallel planning run.
type Options struct {
	// Procs is the number of virtual processors.
	Procs int
	// Regions is the over-decomposition degree (total region count); it
	// should be >= Procs. For grid subdivision the actual count is the
	// nearest grid product >= Regions.
	Regions int

	// Strategy picks the static balancer; Policy, when non-nil, turns on
	// work stealing in the stealable phases and picks its victims;
	// Partitioner the repartition algorithm.
	Strategy    Strategy
	Policy      steal.Policy
	Partitioner Partitioner
	// StealChunk is the fraction of a victim's pending regions taken per
	// steal. The default (a vanishing fraction, i.e. one region per
	// steal) matches the paper's region-at-a-time ownership transfer;
	// raise it toward 0.5 for classic steal-half behaviour (see the
	// ablation benchmarks).
	StealChunk float64

	// CostModel selects what the repartitioner balances on: the static
	// estimators (default; the paper's setup) or the observed per-region
	// task times of prior rounds (CostObserved).
	// Zero-valued fields reproduce the legacy behaviour bit-identically.
	CostModel CostModelKind
	// Rebalance optionally adds a between-rounds diffusive rebalance of
	// the construct queues along the steal mesh (RebalanceDiffusive).
	Rebalance RebalanceKind

	// Profile and Cost define the virtual machine.
	Profile work.MachineProfile
	Cost    work.CostModel

	// Seed makes the run deterministic.
	Seed uint64

	// HostWorkers > 1 executes every heavy phase's region closures
	// (PRM sampling, node connection, region connection, repair; RRT
	// branch growth and connection) on that many OS goroutines of the
	// real work-stealing executor (internal/exec) instead of in queue
	// order on the caller's goroutine. Either way each closure runs once,
	// before the virtual-time replay, and results and virtual times are
	// bit-identical — region tasks are deterministic and order-independent
	// — so this is purely a wall-clock accelerator on multicore hosts.
	HostWorkers int

	// Runtime overrides the scheduler backend executing the virtual-time
	// phases (nil = the discrete-event simulator in internal/dist). Any
	// sched.Runtime — including a future network-distributed backend —
	// plugs in here without the planners changing.
	Runtime sched.Runtime

	// PRM parameters.
	SamplesPerRegion int
	ConnectK         int
	BoundaryK        int
	// Sampler generates PRM candidates (nil = uniform). Narrow-passage
	// samplers concentrate nodes near obstacles.
	Sampler cspace.Sampler
	// BoundaryFrontier caps how many of a region's nodes participate in
	// each cross-region connection attempt (the boundary frontier).
	BoundaryFrontier int

	// RRT parameters.
	NodesPerRegion int
	Step           float64
	Radius         float64 // radial subdivision sphere radius
	// Star grows asymptotically-optimal RRT* branches (choose-parent +
	// rewiring) instead of plain RRT. More local-planning work per node,
	// and even more heterogeneous region costs.
	Star bool
}

// Defaults fills zero-valued fields with sensible values. A negative
// field is left for Validate to reject.
func (o Options) Defaults() Options {
	if o.Procs == 0 {
		o.Procs = 4
	}
	if o.Regions == 0 {
		o.Regions = 8 * o.Procs
	}
	if o.Profile.Name == "" {
		o.Profile = work.Hopper()
	}
	if (o.Cost == work.CostModel{}) {
		o.Cost = work.DefaultCostModel()
	}
	if o.SamplesPerRegion == 0 {
		o.SamplesPerRegion = 10
	}
	if o.ConnectK == 0 {
		o.ConnectK = 5
	}
	if o.BoundaryK == 0 {
		o.BoundaryK = 2
	}
	if o.BoundaryFrontier == 0 {
		o.BoundaryFrontier = 1
	}
	if o.NodesPerRegion == 0 {
		o.NodesPerRegion = 20
	}
	if o.Step == 0 {
		o.Step = 0.05
	}
	if o.Radius == 0 {
		o.Radius = 0.5
	}
	if o.StealChunk == 0 {
		o.StealChunk = 1e-9 // one region per steal
	}
	return o
}

// Validate reports configuration errors, naming the field: a
// non-positive Procs, fewer Regions than Procs, any other negative (or
// NaN) size, or a Strategy, CostModel, Rebalance or Partitioner outside
// its constants.
func (o Options) Validate() error {
	if o.Procs <= 0 {
		return fmt.Errorf("core: Procs must be positive, got %d", o.Procs)
	}
	if o.Regions < o.Procs {
		return fmt.Errorf("core: Regions (%d) must be >= Procs (%d) for over-decomposition", o.Regions, o.Procs)
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"SamplesPerRegion", float64(o.SamplesPerRegion)}, {"ConnectK", float64(o.ConnectK)},
		{"BoundaryK", float64(o.BoundaryK)}, {"BoundaryFrontier", float64(o.BoundaryFrontier)},
		{"NodesPerRegion", float64(o.NodesPerRegion)}, {"HostWorkers", float64(o.HostWorkers)},
		{"Step", o.Step}, {"Radius", o.Radius}, {"StealChunk", o.StealChunk},
	} {
		if !(f.val >= 0) {
			return fmt.Errorf("core: %s must be >= 0, got %v", f.name, f.val)
		}
	}
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"Strategy", int(o.Strategy), int(WorkStealing)}, {"CostModel", int(o.CostModel), int(CostObserved)},
		{"Rebalance", int(o.Rebalance), int(RebalanceDiffusive)}, {"Partitioner", int(o.Partitioner), int(PartitionLPT)},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("core: %s must be in [0, %d], got %d", f.name, f.max, f.val)
		}
	}
	return nil
}

// PhaseBreakdown records virtual time per phase (Fig. 7(a)).
type PhaseBreakdown struct {
	Setup            float64 // subdivision + initial partition barrier
	Sampling         float64 // PRM sampling sub-phase
	Redistribution   float64 // weight computation + migration (repartition)
	NodeConnection   float64 // PRM node connection / RRT branch growth
	RegionConnection float64 // cross-region connection
	Repair           float64 // incremental revalidation after ApplyDelta
	Other            float64 // barriers and merge
}

// add folds one round's breakdown into the cumulative one.
func (p *PhaseBreakdown) add(b PhaseBreakdown) {
	p.Setup += b.Setup
	p.Sampling += b.Sampling
	p.Redistribution += b.Redistribution
	p.NodeConnection += b.NodeConnection
	p.RegionConnection += b.RegionConnection
	p.Repair += b.Repair
	p.Other += b.Other
}

// Total sums all phases.
func (p PhaseBreakdown) Total() float64 {
	return p.Setup + p.Sampling + p.Redistribution + p.NodeConnection + p.RegionConnection + p.Repair + p.Other
}

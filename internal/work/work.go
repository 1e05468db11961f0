// Package work defines the cost model that converts measured planner work
// (collision checks, local-plan steps, kNN evaluations) into virtual time,
// and the machine profiles (latency/topology constants) for the simulated
// distributed machines standing in for the paper's Cray XE6 ("Hopper")
// and Opteron cluster.
//
// The central idea of the reproduction: planners genuinely execute and
// meter their own work; the discrete-event simulator charges each region
// task its measured work under a profile's constants. Load-balancing
// behaviour then depends only on the *distribution* of work and message
// costs — the same quantities that governed the paper's results — not on
// the wall-clock speed of the host.
package work

import "parmp/internal/cspace"

// CostModel weighs each metered operation in abstract work units
// (interpreted as microseconds of virtual time).
type CostModel struct {
	CDCall     float64 // fixed overhead per validity check
	CDObstacle float64 // per obstacle containment/segment test
	LPCall     float64 // fixed overhead per local-plan invocation
	LPStep     float64 // per resolution step
	KNNQuery   float64 // fixed overhead per kNN query
	KNNEval    float64 // per distance evaluation
	Sample     float64 // per configuration generated
}

// DefaultCostModel mirrors the relative costs of a typical PRM stack:
// local planning dominates (the paper measures node connection at ~90 % of
// total time), collision tests are the inner kernel, sampling is cheap.
func DefaultCostModel() CostModel {
	return CostModel{
		CDCall:     1.0,
		CDObstacle: 0.5,
		LPCall:     2.0,
		LPStep:     1.0,
		KNNQuery:   1.0,
		KNNEval:    0.02,
		Sample:     0.2,
	}
}

// Time converts counters to virtual time units.
func (m CostModel) Time(c cspace.Counters) float64 {
	return m.CDCall*float64(c.CDCalls) +
		m.CDObstacle*float64(c.CDObstacle) +
		m.LPCall*float64(c.LPCalls) +
		m.LPStep*float64(c.LPSteps) +
		m.KNNQuery*float64(c.KNNQueries) +
		m.KNNEval*float64(c.KNNEvals) +
		m.Sample*float64(c.Samples)
}

// MachineProfile captures the communication constants of a distributed
// machine in the same virtual time units as CostModel.
type MachineProfile struct {
	Name string
	// CoresPerNode determines which processor pairs communicate at
	// intra-node cost.
	CoresPerNode int
	// LatencyLocal is the one-way message latency between cores on the
	// same node; LatencyRemote between nodes.
	LatencyLocal, LatencyRemote float64
	// StealHandling is the victim-side cost to serve one steal request.
	StealHandling float64
	// MigrateFixed is the fixed cost to migrate one region's ownership;
	// MigratePerVertex adds per roadmap vertex moved with it.
	MigrateFixed, MigratePerVertex float64
	// RemoteAccess is the added cost of touching a graph element owned by
	// another processor (region-connection phase); LocalAccess the cost
	// when it is local.
	LocalAccess, RemoteAccess float64
	// BarrierPerLog is the cost of a global barrier per log2(P).
	BarrierPerLog float64
}

// Hopper approximates a Cray XE6: 24 cores per node, fast Gemini
// interconnect (small remote/local latency ratio).
func Hopper() MachineProfile {
	return MachineProfile{
		Name:             "hopper",
		CoresPerNode:     24,
		LatencyLocal:     20,
		LatencyRemote:    120,
		StealHandling:    10,
		MigrateFixed:     50,
		MigratePerVertex: 0.5,
		LocalAccess:      1,
		RemoteAccess:     30,
		BarrierPerLog:    25,
	}
}

// OpteronCluster approximates a commodity Opteron/InfiniBand cluster:
// 8 cores per node, higher remote latency.
func OpteronCluster() MachineProfile {
	return MachineProfile{
		Name:             "opteron-cluster",
		CoresPerNode:     8,
		LatencyLocal:     25,
		LatencyRemote:    300,
		StealHandling:    15,
		MigrateFixed:     100,
		MigratePerVertex: 1,
		LocalAccess:      1,
		RemoteAccess:     60,
		BarrierPerLog:    40,
	}
}

// Latency returns the one-way latency between processors a and b.
func (p MachineProfile) Latency(a, b int) float64 {
	if p.CoresPerNode <= 0 {
		return p.LatencyLocal
	}
	if a/p.CoresPerNode == b/p.CoresPerNode {
		return p.LatencyLocal
	}
	return p.LatencyRemote
}

// Barrier returns the cost of a global barrier across p processors.
func (p MachineProfile) Barrier(procs int) float64 {
	if procs <= 1 {
		return 0
	}
	logs := 0
	for n := procs - 1; n > 0; n >>= 1 {
		logs++
	}
	return p.BarrierPerLog * float64(logs)
}

// Task is one quantum of schedulable work: a region whose planning cost is
// determined by actually running the closure. Run must be safe to call
// exactly once; it returns the task's virtual-time cost.
//
// In a region phase ID is the region whose work the task performs, so
// scheduler reports attribute observed costs to regions by ID.
//
// Payload is the size of the data that must move WITH the task when its
// ownership transfers before execution (e.g. the samples already
// generated in a PRM region). Stealing a task is priced like migrating
// it: ownership transfer is never free.
type Task struct {
	ID      int
	Payload int
	Run     func() float64
}

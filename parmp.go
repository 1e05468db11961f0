// Package parmp is a library for scalably parallelizing sampling-based
// motion planning algorithms with load balancing, reproducing:
//
//	A. Fidel, S. A. Jacobs, S. Sharma, N. M. Amato, L. Rauchwerger.
//	"Using Load Balancing to Scalably Parallelize Sampling-Based Motion
//	Planning Algorithms." IPDPS 2014.
//
// The library parallelizes the two major families of sampling-based
// planners by spatial subdivision — uniform grid subdivision for PRM and
// uniform radial subdivision for RRT — and balances the resulting
// heterogeneous region workloads with bulk-synchronous repartitioning
// driven by per-region work estimates (Options.Strategy), adaptive work
// stealing with RAND-K, DIFFUSIVE or HYBRID victim selection
// (Options.Policy), or both.
//
// Planning runs execute on a deterministic simulated distributed machine:
// every region task is charged the collision-detection and local-planning
// work the sequential planner actually performed, and steal requests,
// migrations and remote accesses travel as latency-weighted messages. This
// lets strong-scaling studies with thousands of virtual processors run on
// a laptop while preserving the load-balance behaviour the paper measured
// on a Cray XE6 and an Opteron cluster.
//
// # Quickstart
//
//	e := parmp.EnvironmentByName("med-cube")
//	space := parmp.NewPointSpace(e)
//	snap, err := parmp.PlanPRM(space, parmp.Options{
//		Procs:    64,
//		Regions:  512,
//		Strategy: parmp.Repartition, // repartition before node connection
//		Policy:   parmp.Hybrid(8),   // and steal during it (nil: no stealing)
//	})
//	if err != nil { ... }
//	path, ok := snap.Query(start, goal, 8)
//
// A one-shot plan is the first Snapshot of an Engine; build the Engine
// itself to keep growing, repair or cancel.
//
// See examples/ for runnable programs and cmd/mpbench for the harness that
// regenerates every figure of the paper's evaluation.
package parmp

import (
	"context"
	"fmt"
	"io"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/prm"
	"parmp/internal/rng"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// Re-exported configuration types.
type (
	// Options configures a parallel planning run; see core.Options.
	Options = core.Options
	// Strategy selects whether regions are repartitioned; stealing is
	// Options.Policy's.
	Strategy = core.Strategy
	// PRMResult is a PRM snapshot's roadmap and run statistics.
	PRMResult = core.PRMResult
	// RRTResult is an RRT or RRT-Connect snapshot's branches and run
	// statistics.
	RRTResult = core.RRTResult
	// PhaseBreakdown reports virtual time per pipeline phase.
	PhaseBreakdown = core.PhaseBreakdown
	// Environment is a workspace with obstacles.
	Environment = env.Environment
	// Space binds a robot to an environment (C-space, metric, sampler,
	// local planner).
	Space = cspace.Space
	// Config is a configuration (a point in C-space).
	Config = cspace.Config
	// Roadmap is a PRM roadmap graph.
	Roadmap = prm.Roadmap
	// MachineProfile holds the virtual machine's communication constants.
	MachineProfile = work.MachineProfile
	// StealPolicy selects steal victims.
	StealPolicy = steal.Policy
	// Vec is a d-dimensional point or direction.
	Vec = geom.Vec
)

// Load balancing strategies.
const (
	// NoLB keeps the naive static partition.
	NoLB = core.NoLB
	// Repartition redistributes regions using per-region work estimates.
	Repartition = core.Repartition
)

// PlanPRM constructs a roadmap of space's free C-space with the
// uniform-subdivision parallel PRM under opts: the snapshot of a fresh
// NewEngine after one Grow.
func PlanPRM(space *Space, opts Options) (*Snapshot, error) {
	return planOnce(NewEngine(space, opts))
}

// PlanRRT grows a tree rooted at root with the uniform radial subdivision
// parallel RRT under opts: the snapshot of a fresh NewRRTEngine after one
// Grow.
func PlanRRT(space *Space, root Config, opts Options) (*Snapshot, error) {
	return planOnce(NewRRTEngine(space, root, opts))
}

// PlanRRTConnect grows a pair of trees per region (root-side and
// goal-side, greedily connected) with the uniform radial subdivision
// parallel RRT-Connect under opts: the snapshot of a fresh
// NewRRTConnectEngine after one Grow. Requires symmetric local motions:
// steered spaces (Dubins) return an error.
func PlanRRTConnect(space *Space, root, goal Config, opts Options) (*Snapshot, error) {
	return planOnce(NewRRTConnectEngine(space, root, goal, opts))
}

// planOnce grows a just-built engine one round and returns its snapshot.
func planOnce(e *Engine, err error) (*Snapshot, error) {
	if err != nil {
		return nil, err
	}
	if err := e.Grow(context.Background()); err != nil {
		return nil, err
	}
	return e.Snapshot(), nil
}

// PlannerNames lists the planners understood by the command-line tools'
// -planner flags and servable by an Engine.
func PlannerNames() []string { return []string{"prm", "rrt", "rrtconnect"} }

// NewPointSpace returns the C-space of a point robot in e.
func NewPointSpace(e *Environment) *Space { return cspace.NewPointSpace(e) }

// NewRigidBodySpace returns the 6-DOF C-space of a rigid box body with
// the given half-extents in a 3D environment.
func NewRigidBodySpace(e *Environment, hx, hy, hz float64) *Space {
	return cspace.NewRigidBodySpace(e, cspace.NewRigidBox(hx, hy, hz))
}

// NewLinkageSpace returns the C-space of a planar articulated chain
// anchored at base with the given link lengths in a 2D environment.
func NewLinkageSpace(e *Environment, base Vec, linkLens ...float64) *Space {
	return cspace.NewLinkageSpace(e, cspace.Linkage{Base: base, LinkLen: linkLens})
}

// NewSE2Space returns the 3-DOF (x, y, theta) C-space of a 2D rigid
// rectangle with half extents (hx, hy) in a 2D environment.
func NewSE2Space(e *Environment, hx, hy float64) *Space {
	return cspace.NewSE2Space(e, cspace.NewRigidRect(hx, hy))
}

// ParseEnvironment reads an environment from the text format documented
// in internal/env.Parse (name / bounds / box / sphere directives).
func ParseEnvironment(r io.Reader) (*Environment, error) { return env.Parse(r) }

// NewDubinsSpace returns the C-space of a forward-only car with bounded
// turning radius in a 2D environment: configurations are (x, y, heading)
// and local plans follow shortest Dubins curves, so every planned motion
// is kinematically feasible.
func NewDubinsSpace(e *Environment, radius float64) *Space {
	return cspace.NewDubinsSpace(e, radius)
}

// EnvironmentByName returns one of the paper's benchmark environments
// (med-cube, small-cube, free, mixed, mixed-30, walls, maze-2d,
// corner-2d, model-2d), or nil if unknown.
func EnvironmentByName(name string) *Environment { return env.ByName(name) }

// EnvironmentNames lists the environments known to EnvironmentByName.
func EnvironmentNames() []string { return env.Names() }

// Steal policies.

// RandK asks k distinct random victims per steal round (the paper
// evaluates k = 8).
func RandK(k int) StealPolicy { return steal.RandK{K: k} }

// Diffusive asks the thief's neighbours in a 2D processor mesh.
func Diffusive() StealPolicy { return steal.Diffusive{} }

// Hybrid tries diffusive stealing first and falls back to k random
// victims when no neighbour can serve the request.
func Hybrid(k int) StealPolicy { return steal.Hybrid{K: k} }

// StrategyByName resolves a load-balancing name as the command-line
// tools and the serving tier spell it — "none", "repartition", or a steal
// policy ("hybrid", "rand-8", "diffusive", which steals from the naive
// partition) — to the Options.Strategy and Options.Policy that select it.
func StrategyByName(name string) (Strategy, StealPolicy, error) {
	switch name {
	case "none":
		return NoLB, nil, nil
	case "repartition":
		return Repartition, nil, nil
	}
	if policy, ok := steal.ByName(name); ok {
		return NoLB, policy, nil
	}
	return 0, nil, fmt.Errorf("unknown strategy %q (want none, repartition, hybrid, rand-8, diffusive)", name)
}

// Machine profiles.

// HopperProfile approximates the paper's Cray XE6.
func HopperProfile() MachineProfile { return work.Hopper() }

// OpteronProfile approximates the paper's Opteron cluster.
func OpteronProfile() MachineProfile { return work.OpteronCluster() }

// V constructs a vector from components.
func V(xs ...float64) Vec { return geom.V(xs...) }

// Sampler generates candidate configurations; set Options.Sampler to use
// a non-uniform strategy.
type Sampler = cspace.Sampler

// UniformSampler draws uniformly in the region (the default).
func UniformSampler() Sampler { return cspace.UniformSampler{} }

// GaussianSampler concentrates samples near obstacle boundaries.
func GaussianSampler(sigma float64) Sampler { return cspace.GaussianSampler{Sigma: sigma} }

// BridgeSampler concentrates samples inside narrow passages.
func BridgeSampler(sigma float64) Sampler { return cspace.BridgeSampler{Sigma: sigma} }

// MixedSampler routes fraction of draws to secondary, the rest to primary.
func MixedSampler(primary, secondary Sampler, fraction float64) Sampler {
	return cspace.MixedSampler{Primary: primary, Secondary: secondary, Fraction: fraction}
}

// ShortcutPath post-processes a path by random shortcutting, returning a
// path that is never longer and always valid.
func ShortcutPath(space *Space, path []Config, iters int, seed uint64) []Config {
	return cspace.Shortcut(space, path, iters, rng.New(seed), nil)
}

// PathLength returns a path's total metric length.
func PathLength(space *Space, path []Config) float64 { return cspace.PathLength(space, path) }

package parmp

import (
	"context"
	"fmt"

	"parmp/internal/core"
	"parmp/internal/env"
	"parmp/internal/geom"
)

// Obstacle is a workspace obstacle; see env.Obstacle.
type Obstacle = env.Obstacle

// Mutation rejection errors; match with errors.Is. A rejected mutation
// fails the whole ApplyDelta with the engine fully unchanged.
var (
	// ErrDegenerateObstacle rejects obstacles that cannot block anything.
	ErrDegenerateObstacle = env.ErrDegenerateObstacle
	// ErrOutOfBounds rejects obstacles (or moves) landing entirely
	// outside the workspace.
	ErrOutOfBounds = env.ErrOutOfBounds
	// ErrNoSuchObstacle rejects removals/moves of nonexistent indices.
	ErrNoSuchObstacle = env.ErrNoSuchObstacle
	// ErrImmovableObstacle rejects moves of untranslatable obstacle types.
	ErrImmovableObstacle = env.ErrImmovableObstacle
)

// RepairStats summarizes incremental-repair work; see core.RepairStats.
// Engines accumulate it across ApplyDelta calls in their results'
// Repairs field, and each ApplyDelta call returns its own share.
type RepairStats = core.RepairStats

// NewBoxObstacle returns an axis-aligned box obstacle spanning [lo, hi].
func NewBoxObstacle(lo, hi Vec) Obstacle {
	return env.BoxObstacle{Box: geom.NewAABB(lo, hi)}
}

// NewSphereObstacle returns a sphere obstacle.
func NewSphereObstacle(center Vec, radius float64) Obstacle {
	return env.SphereObstacle{Center: center, Radius: radius}
}

// A Mutation is one edit to an engine's environment, applied through
// Engine.ApplyDelta (or Portfolio.ApplyDelta). Mutations are pure
// descriptions — constructing one does nothing until it is applied.
type Mutation interface {
	apply(e *Environment) (env.Delta, error)
}

// AddObstacle inserts an obstacle into the world.
type AddObstacle struct{ Obstacle Obstacle }

func (m AddObstacle) apply(e *Environment) (env.Delta, error) {
	return e.AddObstacle(m.Obstacle)
}

// RemoveObstacle deletes the obstacle at Index (position in the
// environment's obstacle slice, as of the moment the mutation applies).
type RemoveObstacle struct{ Index int }

func (m RemoveObstacle) apply(e *Environment) (env.Delta, error) {
	return e.RemoveObstacle(m.Index)
}

// MoveObstacle translates the obstacle at Index by By. It is rejected
// (the whole ApplyDelta fails, nothing changes) when the obstacle would
// land entirely outside the workspace.
type MoveObstacle struct {
	Index int
	By    Vec
}

func (m MoveObstacle) apply(e *Environment) (env.Delta, error) {
	return e.MoveObstacle(m.Index, m.By)
}

// A DynamicScenario scripts a moving-obstacle world: a base environment
// plus a deterministic mutation schedule (forklifts patrolling aisles, a
// door sliding over a narrow passage). Scenarios are the workload for
// incremental repair — feed each step's mutations to Engine.ApplyDelta.
type DynamicScenario struct {
	Name string
	Desc string

	buildMoves func() (*env.Environment, func(k int) []env.Move)
}

// Build returns a fresh base environment and the script: step k's
// mutations, to be applied in order 0, 1, 2, ... (each step's moves are
// relative to the poses the previous step left behind).
func (sc DynamicScenario) Build() (*Environment, func(k int) []Mutation) {
	e, steps := sc.buildMoves()
	return e, func(k int) []Mutation {
		mvs := steps(k)
		muts := make([]Mutation, len(mvs))
		for i, mv := range mvs {
			muts[i] = MoveObstacle{Index: mv.Index, By: mv.By}
		}
		return muts
	}
}

// DynamicScenarios lists the scripted moving-obstacle scenarios
// (warehouse-forklift, door).
func DynamicScenarios() []DynamicScenario {
	all := env.Scenarios()
	out := make([]DynamicScenario, len(all))
	for i, s := range all {
		out[i] = DynamicScenario{Name: s.Name, Desc: s.Desc, buildMoves: s.BuildMoves}
	}
	return out
}

// DynamicScenarioNames lists the scripted scenario names.
func DynamicScenarioNames() []string {
	return env.ScenarioNames()
}

// DynamicScenarioByName returns the named scenario, or ok=false.
func DynamicScenarioByName(name string) (DynamicScenario, bool) {
	for _, s := range DynamicScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return DynamicScenario{}, false
}

// applyMutations runs muts in order against a fresh copy-on-write clone
// of cur's environment, returning the clone and the merged delta. The
// original environment (and every snapshot holding it) is untouched —
// on error the clone is discarded and nothing happened.
func applyMutations(cur *Space, muts []Mutation) (*env.Environment, env.Delta, error) {
	clone := cur.Env.Clone()
	var delta env.Delta
	for i, m := range muts {
		d, err := m.apply(clone)
		if err != nil {
			return nil, env.Delta{}, fmt.Errorf("parmp: mutation %d: %w", i, err)
		}
		delta = delta.Merge(d)
	}
	return clone, delta, nil
}

// ApplyDelta mutates the engine's environment and incrementally repairs
// its committed structure, between growth rounds: the mutations apply to
// a copy-on-write clone of the world (old snapshots keep answering
// against the world they were built in), the planner re-validates only
// the state the delta can have invalidated (kd-scoped candidate
// selection for PRM, subtree pruning with frontier regrafting for the
// tree planners), and a fresh snapshot — carrying the new environment
// epoch and a bumped generation — is published atomically. Subsequent
// Grow calls sample the mutated world.
//
// All mutations commit or none do: a rejected mutation (degenerate
// obstacle, bad index, out-of-bounds move) returns an error with the
// engine fully unchanged. Cancellation matches Grow: on ctx expiry the
// partial repair is discarded, ErrStopped is returned, and the previous
// snapshot stays in place — ApplyDelta can be retried.
//
// The returned stats cover this call alone; cumulative totals live in
// the result's Repairs field. Calling with no mutations is a no-op.
func (e *Engine) ApplyDelta(ctx context.Context, muts ...Mutation) (RepairStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(muts) == 0 {
		return RepairStats{}, nil
	}
	var stop <-chan struct{}
	if ctx != nil {
		if ctx.Err() != nil {
			return RepairStats{}, ErrStopped
		}
		stop = ctx.Done()
	}
	newEnv, delta, err := applyMutations(e.space, muts)
	if err != nil {
		return RepairStats{}, err
	}
	newSpace := e.space.WithEnv(newEnv)
	s, st, err := e.pl.repair(e.snap.Load(), newSpace, delta, stop)
	if err != nil {
		return RepairStats{}, err
	}
	e.space = newSpace
	e.publish(s)
	return st, nil
}

// ApplyDelta mutates the world for every contestant: the race's shared
// space template advances (so engines built by future Luby restarts plan
// the mutated world) and every live racer — racer 0's first engine
// before the first wave, then every racer still in the race, winner and
// losers alike — repairs its committed structure via Engine.ApplyDelta.
// All racers receive the same mutation sequence, so their environments —
// and epochs — stay in lockstep. The portfolio then republishes: the
// winner's repaired snapshot, or, before the win, the empty snapshot in
// the new world and epoch. The returned stats sum the racers' repair
// work for this call.
//
// The mutations are validated against the template first: an invalid
// mutation returns an error with no racer touched. Cancellation mid-way
// leaves each engine individually consistent (repaired or untouched,
// never torn), but racers may briefly disagree on the epoch until a
// retried ApplyDelta completes; the template is only advanced once all
// engines have repaired.
func (p *Portfolio) ApplyDelta(ctx context.Context, muts ...Mutation) (RepairStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total RepairStats
	if len(muts) == 0 {
		return total, nil
	}
	newEnv, _, err := applyMutations(p.space, muts)
	if err != nil {
		return total, err
	}
	for _, r := range p.racers {
		// A racer whose budget ran out keeps its old engine for Report
		// until the next wave rebuilds it from the template; that engine
		// is no contestant to repair.
		if r.eng == nil || r.due || r.err != nil {
			continue
		}
		st, err := r.eng.ApplyDelta(ctx, muts...)
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	p.space = p.space.WithEnv(newEnv)
	if w := p.Winner(); w >= 0 {
		p.publish(*p.racers[w].eng.Snapshot())
	} else {
		s := *p.snap.Load()
		s.space, s.epoch = p.space, p.space.Env.Epoch
		p.publish(s)
	}
	return total, nil
}

// Package repairbench defines the repair-vs-rebuild benchmark schema
// (BENCH_repair.json) and its regression gate — the dynamic-worlds
// sibling of internal/balancebench's imbalance gate.
//
// The benchmark grows a PRM roadmap in a scripted dynamic scenario
// (internal/env.Scenarios: forklifts patrolling a warehouse, a door
// sliding over the narrow passage), then plays the scenario's mutation
// steps. Each step is costed twice on the virtual-time backend: the
// incremental repair (core.PRMEngine.ApplyDelta, the roadmap-reuse path)
// and a full from-scratch rebuild of an equal-effort roadmap in the
// mutated world. Both numbers are deterministic virtual makespans, so
// the repair speedup can be gated in CI against a checked-in baseline
// without machine noise.
package repairbench

import (
	"fmt"

	"parmp/internal/bench"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/work"
)

// Step is one scripted mutation step: the delta's repair bill next to
// the counterfactual rebuild bill.
type Step struct {
	Step int `json:"step"`
	// Repair work actually paid (conservative culling makes the rest free).
	CheckedNodes int `json:"checked_nodes"`
	CheckedEdges int `json:"checked_edges"`
	RemovedNodes int `json:"removed_nodes"`
	RemovedEdges int `json:"removed_edges"`
	// RepairMakespan is the virtual time of the repair phases;
	// RebuildMakespan is the virtual time of constructing an equal-effort
	// roadmap from scratch in the post-mutation world.
	RepairMakespan  float64 `json:"repair_makespan"`
	RebuildMakespan float64 `json:"rebuild_makespan"`
	// Speedup is RebuildMakespan / RepairMakespan.
	Speedup float64 `json:"speedup"`
}

// Result is one repair benchmark run: the BENCH_repair.json schema.
type Result struct {
	Source           string `json:"source"` // "mpbench"
	Scenario         string `json:"scenario"`
	Procs            int    `json:"procs"`
	Regions          int    `json:"regions"`
	Rounds           int    `json:"rounds"`
	SamplesPerRegion int    `json:"samples_per_region"`
	Seed             int64  `json:"seed"`

	// RepairTotal / RebuildTotal sum the per-step virtual makespans.
	RepairTotal  float64 `json:"repair_total"`
	RebuildTotal float64 `json:"rebuild_total"`
	// SpeedupMean / SpeedupMin aggregate the per-step speedups.
	SpeedupMean float64 `json:"speedup_mean"`
	SpeedupMin  float64 `json:"speedup_min"`

	Steps []Step `json:"steps"`
}

// Config parameterizes Run. The zero value is not runnable; use
// DefaultConfig for the CI shape.
type Config struct {
	Scenario string // dynamic scenario name (env.ScenarioByName)
	Procs    int
	Regions  int
	// Rounds is the initial roadmap's growth rounds — and the rebuild's,
	// so repair is compared against re-earning an equal-effort roadmap.
	Rounds           int
	Steps            int // scripted mutation steps to play
	SamplesPerRegion int
	Seed             int64
}

// DefaultConfig is the CI benchmark shape: a roadmap big enough that
// repair's locality matters, few enough steps to finish in well under a
// second.
func DefaultConfig() Config {
	return Config{
		Scenario:         "warehouse-forklift",
		Procs:            8,
		Regions:          64,
		Rounds:           3,
		Steps:            4,
		SamplesPerRegion: 5,
		Seed:             1,
	}
}

// Run grows the scenario's base roadmap, then plays cfg.Steps scripted
// mutation steps, costing each step's incremental repair against a full
// rebuild of the same growth effort in the mutated world. Deterministic:
// equal cfg always yields an identical Result.
func Run(cfg Config) (Result, error) {
	sc, ok := env.ScenarioByName(cfg.Scenario)
	if !ok {
		return Result{}, fmt.Errorf("unknown scenario %q (want one of %v)", cfg.Scenario, env.ScenarioNames())
	}
	world, mutate := sc.Build()
	opts := core.Options{
		Procs:            cfg.Procs,
		Regions:          cfg.Regions,
		SamplesPerRegion: cfg.SamplesPerRegion,
		ConnectK:         3,
		Seed:             uint64(cfg.Seed),
		Profile:          work.Hopper(),
		Strategy:         core.Repartition,
		CostModel:        core.CostObserved,
		Rebalance:        core.RebalanceDiffusive,
	}
	grow := func(e *env.Environment) (*core.PRMEngine, error) {
		eng, err := core.NewPRMEngine(cspace.NewPointSpace(e), opts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Rounds; i++ {
			if err := eng.GrowRound(nil); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
	space := cspace.NewPointSpace(world)
	eng, err := core.NewPRMEngine(space, opts)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < cfg.Rounds; i++ {
		if err := eng.GrowRound(nil); err != nil {
			return Result{}, err
		}
	}

	r := Result{
		Source:           "mpbench",
		Scenario:         cfg.Scenario,
		Procs:            cfg.Procs,
		Regions:          cfg.Regions,
		Rounds:           cfg.Rounds,
		SamplesPerRegion: cfg.SamplesPerRegion,
		Seed:             cfg.Seed,
	}
	for k := 0; k < cfg.Steps; k++ {
		// Scripted steps are relative to the poses the previous step left,
		// so each step mutates a clone of the current world.
		next := world.Clone()
		delta, err := mutate(next, k)
		if err != nil {
			return Result{}, fmt.Errorf("scenario %s step %d: %w", cfg.Scenario, k, err)
		}
		space = space.WithEnv(next)
		rep, err := eng.ApplyDelta(space, delta, nil, nil)
		if err != nil {
			return Result{}, fmt.Errorf("repair step %d: %w", k, err)
		}
		// Counterfactual: earn an equal-effort roadmap from scratch in the
		// mutated world.
		rebuilt, err := grow(next)
		if err != nil {
			return Result{}, fmt.Errorf("rebuild step %d: %w", k, err)
		}
		step := Step{
			Step:            k,
			CheckedNodes:    rep.Stats.CheckedNodes,
			CheckedEdges:    rep.Stats.CheckedEdges,
			RemovedNodes:    rep.Stats.RemovedNodes,
			RemovedEdges:    rep.Stats.RemovedEdges,
			RepairMakespan:  rep.Stats.Makespan,
			RebuildMakespan: rebuilt.Result().TotalTime,
		}
		if step.RepairMakespan > 0 {
			step.Speedup = step.RebuildMakespan / step.RepairMakespan
		}
		r.Steps = append(r.Steps, step)
		r.RepairTotal += step.RepairMakespan
		r.RebuildTotal += step.RebuildMakespan
		world = next
	}
	var speedupSum float64
	var speedupN int
	for _, st := range r.Steps {
		if st.Speedup <= 0 {
			continue // a free repair (nothing affected) has no meaningful ratio
		}
		speedupSum += st.Speedup
		speedupN++
		if r.SpeedupMin == 0 || st.Speedup < r.SpeedupMin {
			r.SpeedupMin = st.Speedup
		}
	}
	if speedupN > 0 {
		r.SpeedupMean = speedupSum / float64(speedupN)
	}
	return r, nil
}

// The repair regression thresholds. The benchmark is deterministic, so
// any drift is a real behavior change.
const (
	// MinSpeedup is the floor under the mean repair speedup — the "repair
	// must beat rebuild" contract.
	MinSpeedup = 1
	// MaxRegress is the fraction by which the total repair makespan may
	// exceed the baseline's.
	MaxRegress = 0.10
)

// Check gates r, reporting every violation: the speedup floor always,
// the makespan regression when a baseline is given.
func Check(r Result, baseline *Result) error {
	limits := []bench.Limit{
		{Name: "mean repair speedup", Cur: r.SpeedupMean, Ref: MinSpeedup, Kind: bench.Floor},
	}
	if baseline != nil {
		limits = append(limits, bench.Limit{Name: "total repair makespan",
			Cur: r.RepairTotal, Ref: baseline.RepairTotal, Kind: bench.Regress, Tol: MaxRegress})
	}
	return bench.Check("repair gate", limits)
}

package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"parmp"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/rng"
	"parmp/internal/work"
)

// plannerRaceShortcut is the fixed smoothing budget applied to every
// extracted path so the quality comparison is planner-agnostic (raw
// RRT-Connect paths detour through the greedy connect segment).
const plannerRaceShortcut = 1000

// raceOutcome is one planner's result on one seed.
type raceOutcome struct {
	ms     float64 // wall-clock milliseconds to first solution
	length float64 // smoothed path length (0 when unsolved)
	solved bool
}

// sinceMS is the wall-clock milliseconds elapsed since start.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// racePlanner grows one engine round by round until a committed snapshot
// answers the root→goal query, and reports host wall-clock time to that
// first solution. Both planners pay the identical per-round index build
// and path extraction, so the comparison isolates planner growth.
func racePlanner(planner string, s *cspace.Space, root, goal cspace.Config, opts core.Options, maxRounds int) raceOutcome {
	start := time.Now()
	eng := must(parmp.NewEngineByName(planner, s, root, goal, opts))
	for round := 1; round <= maxRounds; round++ {
		if err := eng.Grow(context.Background()); err != nil {
			panic(err)
		}
		// A tree snapshot ignores the attach count k.
		path, ok := eng.Snapshot().Query(root, goal, 1)
		if !ok {
			continue
		}
		ms := sinceMS(start)
		// Densify before each shortcut pass so cuts can land mid-segment
		// (vertex-pair shortcutting alone gets stuck on taut polylines);
		// every pass is monotone non-increasing in length.
		for pass := uint64(0); pass < 3; pass++ {
			path = cspace.Densify(s, path, 4*opts.Step)
			path = cspace.Shortcut(s, path, plannerRaceShortcut, rng.Derive(opts.Seed, 0x5407+pass), nil)
		}
		return raceOutcome{ms: ms, length: cspace.PathLength(s, path), solved: true}
	}
	return raceOutcome{ms: sinceMS(start)}
}

// raceOpts sizes a planner race on e: radial reach is the environment
// diagonal so the corner-to-corner benchmark query is inside every cone.
func raceOpts(sc Scale, e *env.Environment, seed uint64) core.Options {
	// A fine step keeps the open-space race growth-dominated: covering
	// the corner-to-corner distance takes many extension steps, which is
	// the work the bidirectional search halves. The narrow-passage walls
	// env is feasibility-dominated instead, so it races at the default
	// coarser step (both planners always share the same options).
	step := 0.025
	if e.Name == "walls" {
		step = 0.05
	}
	opts := rrtOpts(sc, 8, work.OpteronCluster())
	// Doubled node budget per round: a denser round-1 tree gives the
	// smoother corridor the path-cost comparison needs.
	opts.Regions, opts.NodesPerRegion = 32, 2*sc.NodesPerRegion
	opts.Step, opts.Radius, opts.Seed = step, e.Bounds.Extent().Norm(), seed
	return opts
}

// plannerCompare races the radial tree planners to the first solution of
// e's corner-to-corner benchmark query and tabulates wall-clock
// milliseconds and smoothed path length per seed (the EXPERIMENTS.md
// "RRT vs RRT-Connect" table). Unsolved seeds report length 0 and the
// time of the full round budget. Summary notes give each planner's mean
// time, mean path length and solve rate, plus the pairwise speedup when
// both rrt and rrtconnect raced.
func plannerCompare(sc Scale, e *env.Environment, planners []string) *metrics.Table {
	t := newTable(fmt.Sprintf("RRT vs RRT-Connect to First Solution, %s (wall clock)", e.Name), "seed#")
	for _, p := range planners {
		t.Columns = append(t.Columns, p+"-ms", p+"-pathlen")
	}
	s := robotSpace(e)
	root, goal := corners(e)
	if !s.Valid(root, nil) || !s.Valid(goal, nil) {
		panic(fmt.Sprintf("experiments: %s benchmark corners are not free", e.Name))
	}
	// Per-planner sums over seeds: time, solved path length, solve count.
	ms := make([]float64, len(planners))
	length := make([]float64, len(planners))
	solved := make([]int, len(planners))
	for i := 0; i < sc.RaceSeeds; i++ {
		var row []float64
		for j, p := range planners {
			out := racePlanner(p, s, root, goal, raceOpts(sc, e, sc.Seed+uint64(i)), sc.RaceRounds)
			row = append(row, out.ms, out.length)
			ms[j] += out.ms
			if out.solved {
				length[j] += out.length
				solved[j]++
			}
		}
		t.AddRow(float64(i), row...)
	}
	for j, p := range planners {
		meanLen := 0.0
		if solved[j] > 0 {
			meanLen = length[j] / float64(solved[j])
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: mean %.1f ms, mean path length %.3f, solved %d/%d",
			p, ms[j]/float64(sc.RaceSeeds), meanLen, solved[j], sc.RaceSeeds))
	}
	rrt, rc := slices.Index(planners, "rrt"), slices.Index(planners, "rrtconnect")
	if rrt >= 0 && rc >= 0 && ms[rc] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("rrtconnect speedup over rrt: %.2fx", ms[rrt]/ms[rc]))
	}
	return t
}

// Planners runs the RRT vs RRT-Connect race on med-cube and the
// narrow-passage walls environment (the two EXPERIMENTS.md table
// workloads). planners selects the contestants; nil races both.
func Planners(sc Scale, planners []string) []*metrics.Table {
	if len(planners) == 0 {
		planners = []string{"rrt", "rrtconnect"}
	}
	return []*metrics.Table{
		plannerCompare(sc, env.MedCube(), planners),
		plannerCompare(sc, env.ByName("walls"), planners),
	}
}

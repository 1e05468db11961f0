// Command mpsolve plans a motion query in one of the benchmark
// environments with a parallel sampling-based planner (PRM, RRT or
// RRT-Connect) and prints the resulting path.
//
// Usage:
//
//	mpsolve -env med-cube -strategy repartition -procs 16 \
//	        -start 0.05,0.05,0.05 -goal 0.95,0.95,0.95
//	mpsolve -env med-cube -planner rrtconnect -rounds 3
//
// The planner runs on the simulated distributed machine; the printed
// breakdown reports virtual-time per phase and the load balance achieved.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"parmp"
	"parmp/internal/cspace"
	"parmp/internal/prm"
)

func parseConfig(s string) (parmp.Config, error) {
	parts := strings.Split(s, ",")
	q := make(parmp.Config, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q: %w", p, err)
		}
		q[i] = v
	}
	return q, nil
}

// fail prints one error line and exits: status 2 for bad input found
// before any planning, 1 for a failure while planning.
func fail(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "mpsolve: "+format+"\n", a...)
	os.Exit(code)
}

func main() {
	envName := flag.String("env", "med-cube", "environment ("+strings.Join(parmp.EnvironmentNames(), ", ")+")")
	envFile := flag.String("envfile", "", "load the environment from a file in the env text format instead")
	planner := flag.String("planner", "prm", "planner ("+strings.Join(parmp.PlannerNames(), ", ")+")")
	strategy := flag.String("strategy", "repartition", "load balancing (none, repartition, hybrid, rand-8, diffusive)")
	procs := flag.Int("procs", 16, "virtual processors")
	regions := flag.Int("regions", 0, "regions (default 8x procs)")
	samples := flag.Int("samples", 16, "sampling attempts per region (PRM) or tree nodes per region (RRT, RRT-Connect)")
	radius := flag.Float64("radius", 0, "radial region reach for the tree planners (0 = the environment diagonal, so corner-to-corner queries are reachable)")
	startStr := flag.String("start", "0.05,0.05,0.05", "start configuration (comma-separated)")
	goalStr := flag.String("goal", "0.95,0.95,0.95", "goal configuration")
	seed := flag.Uint64("seed", 1, "random seed")
	samplerName := flag.String("sampler", "uniform", "sampling strategy (uniform, gaussian, bridge, mixed)")
	shortcut := flag.Int("shortcut", 0, "post-process the path with this many shortcut iterations")
	rounds := flag.Int("rounds", 1, "growth rounds (each adds -samples attempts per region)")
	nPortfolio := flag.Int("portfolio", 0, "race this many derived-seed configurations to first solution instead of growing one engine (0 = off)")
	restarts := flag.String("restarts", "luby", "portfolio restart schedule (luby, none)")
	maxWaves := flag.Int("max-waves", 256, "portfolio wave budget before giving up (0 = race until -timeout)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for growth; on expiry the committed rounds still serve (0 = none)")
	mutate := flag.String("mutate", "", "dynamic-world mode: play this scripted scenario's mutations after growth, repairing the roadmap incrementally each step ("+strings.Join(parmp.DynamicScenarioNames(), ", ")+"); overrides -env")
	mutateSteps := flag.Int("mutate-steps", 4, "with -mutate, scripted mutation steps to play")
	flag.Parse()

	var mutateScript func(k int) []parmp.Mutation
	var e *parmp.Environment
	if *mutate != "" {
		if *nPortfolio > 0 {
			fail(2, "-mutate does not combine with -portfolio")
		}
		sc, ok := parmp.DynamicScenarioByName(*mutate)
		if !ok {
			fail(2, "unknown scenario %q (want %s)",
				*mutate, strings.Join(parmp.DynamicScenarioNames(), ", "))
		}
		e, mutateScript = sc.Build()
	} else if *envFile != "" {
		f, err := os.Open(*envFile)
		if err != nil {
			fail(2, "%v", err)
		}
		e, err = parmp.ParseEnvironment(f)
		f.Close()
		if err != nil {
			fail(2, "%v", err)
		}
	} else {
		e = parmp.EnvironmentByName(*envName)
	}
	if e == nil {
		fail(2, "unknown environment %q (have %s)", *envName, strings.Join(parmp.EnvironmentNames(), ", "))
	}
	start, err := parseConfig(*startStr)
	if err != nil {
		fail(2, "%v", err)
	}
	goal, err := parseConfig(*goalStr)
	if err != nil {
		fail(2, "%v", err)
	}
	if len(start) != e.Dim() || len(goal) != e.Dim() {
		fail(2, "%s is %d-dimensional; start is %d-dimensional, goal %d-dimensional",
			e.Name, e.Dim(), len(start), len(goal))
	}

	sampler, ok := cspace.SamplerByName(*samplerName)
	if !ok {
		fail(2, "unknown sampler %q", *samplerName)
	}
	opts := parmp.Options{
		Procs:            *procs,
		Regions:          *regions,
		SamplesPerRegion: *samples,
		NodesPerRegion:   *samples,
		Radius:           *radius,
		Seed:             *seed,
		Sampler:          sampler,
	}
	if opts.Strategy, opts.Policy, err = parmp.StrategyByName(*strategy); err != nil {
		fail(2, "%v", err)
	}
	// The library's own gate names a bad Options field; every other int
	// flag is a count, where 0 means none or off.
	if err := opts.Defaults().Validate(); err != nil {
		fail(2, "%v", err)
	}
	flag.Visit(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n < 0 {
			fail(2, "-%s must be >= 0, got %d", f.Name, n)
		}
	})
	if !slices.Contains(parmp.PlannerNames(), *planner) {
		fail(2, "unknown planner %q (want %s)",
			*planner, strings.Join(parmp.PlannerNames(), ", "))
	}

	space := parmp.NewPointSpace(e)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var snap *parmp.Snapshot
	if *nPortfolio > 0 {
		snap = racePortfolio(ctx, space, start, goal, opts, *planner, *nPortfolio, *restarts, *maxWaves, *rounds)
	} else {
		eng, err := parmp.NewEngineByName(*planner, space, start, goal, opts)
		if err != nil {
			fail(1, "%v", err)
		}
		growErr := eng.GrowN(ctx, *rounds)
		snap = eng.Snapshot()
		if growErr != nil {
			if !errors.Is(growErr, parmp.ErrStopped) {
				fail(1, "%v", growErr)
			}
			fmt.Printf("growth      : timed out after %d/%d rounds; serving the committed roadmap\n",
				snap.Rounds(), *rounds)
		}
		if mutateScript != nil {
			// Each step is one replanning cycle: mutate the world, repair
			// the roadmap incrementally, grow one round so freed space
			// refills, then re-answer the query.
			fmt.Printf("scenario    : %s, %d scripted steps\n", *mutate, *mutateSteps)
			for k := 0; k < *mutateSteps; k++ {
				st, err := eng.ApplyDelta(ctx, mutateScript(k)...)
				if err != nil {
					fail(1, "step %d: %v", k, err)
				}
				if err := eng.Grow(ctx); err != nil && !errors.Is(err, parmp.ErrStopped) {
					fail(1, "step %d: %v", k, err)
				}
				s := eng.Snapshot()
				answer := "no path"
				if p, ok := s.Query(start, goal, 8); ok {
					answer = fmt.Sprintf("path %d waypoints", len(p))
				}
				fmt.Printf("  step %d: epoch %d, checked %d nodes + %d edges, removed %d nodes + %d edges, grafted %d, repair T=%.0f — %s\n",
					k, s.Epoch(), st.CheckedNodes, st.CheckedEdges,
					st.RemovedNodes, st.RemovedEdges, st.Grafted, st.Makespan, answer)
			}
			snap = eng.Snapshot()
		}
	}
	fmt.Printf("environment : %s\n", e)
	if *planner == "prm" {
		res := snap.PRM()
		fmt.Printf("roadmap     : %s (after %d rounds)\n", prm.ComputeStats(res.Roadmap), snap.Rounds())
		fmt.Printf("virtual time: %.0f units on %d procs (%s)\n", res.TotalTime, opts.Defaults().Procs, *strategy)
		fmt.Printf("phases      : sampling=%.0f redistribute=%.0f node-conn=%.0f region-conn=%.0f\n",
			res.Phases.Sampling, res.Phases.Redistribution, res.Phases.NodeConnection, res.Phases.RegionConnection)
		fmt.Printf("load CV     : %.3f -> %.3f (migrated %d regions)\n", res.CVBefore, res.CVAfter, res.MigratedRegions)
	} else {
		res := snap.RRT()
		fmt.Printf("forest      : %d nodes in %d branches, %d bridges, %d cycles pruned (after %d rounds)\n",
			res.TotalNodes(), len(res.Branches), len(res.Bridges), res.PrunedCycles, snap.Rounds())
		if *planner == "rrtconnect" {
			fmt.Printf("two-tree    : %d/%d region pairs met, goal connected: %v\n",
				res.TreesMet, len(res.Branches), res.GoalConnected)
		}
		fmt.Printf("virtual time: %.0f units on %d procs (%s)\n", res.TotalTime, opts.Defaults().Procs, *strategy)
		fmt.Printf("phases      : redistribute=%.0f grow=%.0f region-conn=%.0f\n",
			res.Phases.Redistribution, res.Phases.NodeConnection, res.Phases.RegionConnection)
		fmt.Printf("load CV     : %.3f -> %.3f\n", res.CVBefore, res.CVAfter)
	}

	path, ok := snap.Query(start, goal, 8)
	if !ok {
		fmt.Println("query       : NO PATH FOUND (try more samples or rounds)")
		os.Exit(1)
	}
	if *shortcut > 0 {
		before := parmp.PathLength(space, path)
		path = parmp.ShortcutPath(space, path, *shortcut, *seed)
		fmt.Printf("shortcut    : length %.3f -> %.3f\n", before, parmp.PathLength(space, path))
	}
	fmt.Printf("query       : path with %d waypoints\n", len(path))
	for i, q := range path {
		fmt.Printf("  %3d: %v\n", i, q)
	}
}

// racePortfolio runs the restart-portfolio meta-planner: n derived-seed
// configurations of the planner race to the first solution of the
// (start, goal) query, then the winner keeps growing until the
// published snapshot has at least rounds committed rounds. Prints the
// race report and returns the final snapshot.
func racePortfolio(ctx context.Context, space *parmp.Space, start, goal parmp.Config, opts parmp.Options, planner string, n int, restarts string, maxWaves, rounds int) *parmp.Snapshot {
	pf, err := parmp.NewPortfolio(space, start, goal, opts, parmp.PortfolioOptions{
		Racers:   n,
		Planners: []string{planner},
		Restarts: restarts,
		MaxWaves: maxWaves,
	})
	if err != nil {
		fail(1, "%v", err)
	}
	t0 := time.Now()
	rep, err := pf.Solve(ctx)
	if err != nil {
		switch {
		case errors.Is(err, parmp.ErrNoSolution):
			fail(1, "portfolio: no racer solved the query within %d waves", rep.Waves)
		case errors.Is(err, parmp.ErrStopped):
			fmt.Printf("portfolio   : timed out undecided after %d waves; serving the empty snapshot\n", rep.Waves)
		default:
			fail(1, "%v", err)
		}
	}
	fmt.Printf("portfolio   : %d racers (%s), %s restarts\n", n, planner, restarts)
	if rep.Winner >= 0 {
		fmt.Printf("race        : racer %d won after %d waves in %v (%d restarts across racers)\n",
			rep.Winner, rep.Waves, time.Since(t0).Round(time.Millisecond), rep.Restarts)
		for i, rr := range rep.Racers {
			mark := " "
			switch {
			case rr.Solved && i == rep.Winner:
				mark = "*"
			case rr.Stopped:
				mark = "x" // cancelled mid-round by arbitration
			}
			fmt.Printf("  %s #%d %-10s seed=%#016x rounds=%d restarts=%d\n",
				mark, i, rr.Planner, rr.Seed, rr.Rounds, rr.Restarts)
		}
		// Keep growing the winner toward the requested round target, like
		// a plain engine run.
		for pf.Rounds() < rounds {
			if err := pf.Grow(ctx); err != nil {
				break
			}
		}
	}
	return pf.Snapshot()
}

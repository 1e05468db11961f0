// Command mptrace runs one growth round of the parallel PRM with event
// tracing enabled on the virtual-time runtime and renders, for every
// phase the round replays (sample, construct, region-connect), a
// per-processor utilization timeline, making the steal protocol visible:
// who ran what, who stole from whom, and where processors idled. With
// -chrome it additionally exports the whole round in Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto, one track per
// processor, the phases one after another.
//
// With -costs it instead runs a multi-round closed-loop PRM (observed
// cost model + repartitioning, under the -policy steal policy; -policy
// none steals nothing) and prints a per-region task-cost table after
// every round: where the construct time actually went, which regions
// dominate, and how the per-processor load evens out as the cost model
// warms up.
//
// Usage:
//
//	mptrace -env med-cube -procs 8 -regions 64 -policy hybrid
//	mptrace -policy rand-8 -chrome out.json
//	mptrace -costs -env mixed -rounds 4 -policy none
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/obsv"
	"parmp/internal/repart"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

func main() {
	envName := flag.String("env", "med-cube", "environment")
	procs := flag.Int("procs", 8, "virtual processors")
	regions := flag.Int("regions", 64, "regions")
	samples := flag.Int("samples", 12, "sampling attempts per region")
	policyName := flag.String("policy", "hybrid", "steal policy (hybrid, rand-8, diffusive, none)")
	width := flag.Int("width", 72, "timeline width in characters")
	chromeOut := flag.String("chrome", "", "write the trace as Chrome trace_event JSON to this file")
	costs := flag.Bool("costs", false, "run a multi-round closed-loop PRM and print per-region task-cost tables per round")
	rounds := flag.Int("rounds", 4, "with -costs, growth rounds to run")
	top := flag.Int("top", 12, "with -costs, heaviest regions to list per round")
	verbose := flag.Bool("v", false, "print the raw event log too")
	flag.Parse()
	// Every int flag is a count: reject a non-positive one before any work.
	flag.Visit(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n <= 0 {
			fmt.Fprintf(os.Stderr, "mptrace: -%s must be positive, got %d\n", f.Name, n)
			os.Exit(2)
		}
	})

	e := env.ByName(*envName)
	if e == nil {
		fmt.Fprintf(os.Stderr, "mptrace: unknown environment %q\n", *envName)
		os.Exit(2)
	}

	// Both modes drive the same PRM engine under the named steal policy;
	// -costs also closes the loop (observed cost model + repartitioning).
	opts := core.Options{
		Procs: *procs, Regions: *regions, SamplesPerRegion: *samples,
		ConnectK: 3, Profile: work.Hopper(), Seed: 7,
	}
	if *policyName != "none" {
		policy, ok := steal.ByName(*policyName)
		if !ok {
			fmt.Fprintf(os.Stderr, "mptrace: unknown policy %q\n", *policyName)
			os.Exit(2)
		}
		opts.Policy = policy
	}
	if *costs {
		opts.Strategy, opts.CostModel = core.Repartition, core.CostObserved
	}
	// The library's own gate names a configuration it refuses.
	if err := opts.Defaults().Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mptrace:", err)
		os.Exit(2)
	}

	var err error
	if *costs {
		err = runCosts(e, opts, *rounds, *top)
	} else {
		err = runTrace(e, opts, *policyName, *width, *chromeOut, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mptrace:", err)
		os.Exit(1)
	}
}

// runTrace traces the driver itself: Options.Runtime is the seam every
// phase replay goes through, so a runtime that installs a tracer and
// forwards to the simulator sees one growth round exactly as the engine
// runs it. It prints a timeline and the load-balance metrics per phase.
func runTrace(e *env.Environment, opts core.Options, policyName string, width int, chromeOut string, verbose bool) error {
	type phaseTrace struct {
		events []sched.TraceEvent
		rep    sched.Report
	}
	var phases []*phaseTrace
	chrome := obsv.NewChromeTrace(obsv.ScaleVirtual)
	elapsed := 0.0 // makespans of the phases before this one: its offset on the chrome timeline
	opts.Runtime = sched.RuntimeFunc(func(cfg sched.Config, queues [][]work.Task) sched.Report {
		ph := &phaseTrace{}
		phases = append(phases, ph)
		cfg.Trace = func(ev sched.TraceEvent) {
			ph.events = append(ph.events, ev)
			ev.Time += elapsed
			chrome.Event(ev)
		}
		ph.rep = dist.Run(cfg, queues)
		elapsed += ph.rep.Makespan
		return ph.rep
	})
	eng, err := core.NewPRMEngine(cspace.NewPointSpace(e), opts)
	if err != nil {
		return err
	}
	if err := eng.GrowRound(nil); err != nil {
		return err
	}

	// The engine logs one report per replay, in replay order: its names
	// label the traced phases.
	for i, pr := range eng.Result().PhaseReports {
		ph := phases[i]
		fmt.Printf("%s: %d tasks on %d procs, policy=%s, makespan=%.0f units, bound=%.0f\n\n",
			pr.Phase, ph.rep.TotalTasks, len(ph.rep.Workers), policyName, ph.rep.Makespan, pr.Bound)
		for _, line := range dist.Timeline(ph.events, ph.rep, width) {
			fmt.Println(line)
		}
		fmt.Printf("\n'#' executing, '.' idle/communicating; one column = %.0f virtual units\n",
			ph.rep.Makespan/float64(width))
		m := obsv.Analyze(ph.rep)
		fmt.Printf("utilization=%.2f imbalance=%.2f steal-eff=%.2f (granted %d / issued %d) migrated=%d transfers=%d\n\n",
			m.Utilization, m.Imbalance, m.StealEfficiency,
			m.StealsGranted, m.StealsIssued, m.TasksMigrated, m.TaskTransfers)
	}

	if chromeOut != "" {
		var buf bytes.Buffer
		if _, err := chrome.WriteTo(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(chromeOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", chromeOut)
	}
	if verbose {
		for _, ph := range phases {
			fmt.Println()
			for _, ev := range ph.events {
				fmt.Println(ev)
			}
		}
	}
	return nil
}

// runCosts drives the closed-loop PRM engine (observed cost model +
// repartitioning) and, after every committed round, prints that round's
// per-region construct costs: the heaviest regions with their owner and
// cumulative mean/max, then the per-processor cost distribution the next
// repartition will balance.
func runCosts(e *env.Environment, opts core.Options, rounds, top int) error {
	eng, err := core.NewPRMEngine(cspace.NewPointSpace(e), opts)
	if err != nil {
		return err
	}
	// The grid rounds the requested region count to its own shape: size
	// everything by the engine's regions, not the flag.
	regions := eng.Result().RegionGraph.NumRegions()
	fmt.Printf("closed-loop PRM on %s: %d procs, %d regions, %d samples/region/round, cost model %s\n",
		e, opts.Procs, regions, opts.SamplesPerRegion, opts.CostModel)
	prev := make([]float64, regions)
	for round := 0; round < rounds; round++ {
		if err := eng.GrowRound(nil); err != nil {
			return err
		}
		res := eng.Result()
		rg := res.RegionGraph

		type row struct {
			region int
			cost   float64
		}
		thisRound := make([]row, regions)
		costs := make([]float64, regions)
		for i, rc := range res.RegionCosts {
			costs[i] = rc.Sum - prev[i]
			prev[i] = rc.Sum
			thisRound[i] = row{i, costs[i]}
		}
		perProc := repart.Loads(costs, rg.Owner, opts.Procs)
		sort.Slice(thisRound, func(a, b int) bool { return thisRound[a].cost > thisRound[b].cost })

		fmt.Printf("\nround %d: construct cost %.0f units over %d regions (top %d)\n",
			round, metrics.Sum(costs), regions, top)
		fmt.Printf("%8s %6s %12s %12s %12s\n", "region", "owner", "cost", "cum-mean", "cum-max")
		for _, r := range thisRound[:min(top, len(thisRound))] {
			rc := res.RegionCosts[r.region]
			fmt.Printf("%8d %6d %12.1f %12.1f %12.1f\n",
				r.region, rg.Owner[r.region], r.cost, rc.Mean(), rc.Max)
		}
		fmt.Printf("per-proc: cv=%.3f", metrics.CV(perProc))
		for p, c := range perProc {
			fmt.Printf(" p%d=%.0f", p, c)
		}
		fmt.Println()
	}
	return nil
}

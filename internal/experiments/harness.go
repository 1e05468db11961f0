package experiments

import (
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// series is one load-balancing configuration under comparison: the label
// it is plotted under and the balancing knobs of core.Options (zero
// values are the driver's defaults).
type series struct {
	label     string
	strategy  core.Strategy
	policy    steal.Policy
	chunk     float64 // StealChunk: the share of a victim's deque one steal takes
	costModel core.CostModelKind
	rebalance core.RebalanceKind
	partition core.Partitioner
}

// The strategy table: every balancer the figures compare, under the
// paper's legend labels.
var (
	noLB        = series{label: "without-lb", strategy: core.NoLB}
	repartLB    = series{label: "repartitioning", strategy: core.Repartition}
	hybridWS    = series{label: "hybrid-ws", strategy: core.WorkStealing, policy: steal.Hybrid{K: 8}}
	rand8WS     = series{label: "rand-8-ws", strategy: core.WorkStealing, policy: steal.RandK{K: 8}}
	diffusiveWS = series{label: "diffusive-ws", strategy: core.WorkStealing, policy: steal.Diffusive{}}

	// prmSeries is the standard four-way comparison of the PRM figures;
	// rrtSeries the work-stealing comparison of Fig 10.
	prmSeries = []series{noLB, repartLB, hybridWS, rand8WS}
	rrtSeries = []series{noLB, hybridWS, rand8WS, diffusiveWS}
)

// relabel returns st under another label.
func relabel(st series, label string) series {
	st.label = label
	return st
}

// apply returns opts balanced the way s says.
func (s series) apply(opts core.Options) core.Options {
	opts.Strategy, opts.Policy, opts.StealChunk = s.strategy, s.policy, s.chunk
	opts.CostModel, opts.Rebalance, opts.Partitioner = s.costModel, s.rebalance, s.partition
	return opts
}

func newTable(title, xlabel string, columns ...string) *metrics.Table {
	return &metrics.Table{Title: title, XLabel: xlabel, Columns: columns}
}

// sweep tabulates run over xs × ss: one row per x, one column per series.
func sweep(title, xlabel string, xs []int, ss []series, run func(x int, s series) float64) *metrics.Table {
	t := newTable(title, xlabel)
	for _, s := range ss {
		t.Columns = append(t.Columns, s.label)
	}
	for _, x := range xs {
		row := make([]float64, len(ss))
		for i, s := range ss {
			row[i] = run(x, s)
		}
		t.AddRow(float64(x), row...)
	}
	return t
}

// must unwraps a result: the harness builds every option set itself, so
// an error is a bug in this package, not bad input.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// mustRRT is one growth round of the radial RRT.
func mustRRT(s *cspace.Space, root cspace.Config, opts core.Options) *core.RRTResult {
	return must(core.ParallelRRT(s, root, opts))
}

// grow runs rounds growth rounds on either core engine and returns its
// cumulative result.
func grow[R any](eng interface {
	GrowRound(stop <-chan struct{}) error
	Result() R
}, rounds int) R {
	for r := 0; r < rounds; r++ {
		if err := eng.GrowRound(nil); err != nil {
			panic(err)
		}
	}
	return eng.Result()
}

// robotSpace is the C-space every experiment plans in: the point robot
// in e. The robot is chosen here and nowhere else; only Fig 4's model
// space (modelSamples) is built apart.
func robotSpace(e *env.Environment) *cspace.Space { return cspace.NewPointSpace(e) }

// prmRound is one growth round of the figures' PRM configuration: e on
// the machine profile models, at p procs over sc.PRMRegions regions,
// balanced as st says.
func prmRound(sc Scale, e *env.Environment, profile work.MachineProfile, p int, st series) *core.PRMResult {
	return must(core.ParallelPRM(robotSpace(e), st.apply(core.Options{
		Procs:            p,
		Regions:          sc.PRMRegions,
		SamplesPerRegion: sc.SamplesPerRegion,
		ConnectK:         6,
		BoundaryK:        1,
		BoundaryFrontier: 1,
		Profile:          profile,
		Seed:             sc.Seed,
		// Half uniform, half obstacle-based (Gaussian) sampling — the
		// Parasol planners the paper builds on are obstacle-based
		// (OBPRM), which concentrates roadmap nodes near obstacle
		// surfaces. That concentration is what makes the paper's naive
		// mapping so imbalanced (Fig 3(b): most nodes on two
		// processors).
		Sampler: cspace.MixedSampler{
			Primary:   cspace.UniformSampler{},
			Secondary: cspace.GaussianSampler{},
			Fraction:  0.5,
		},
	})))
}

func rrtOpts(sc Scale, procs int, profile work.MachineProfile) core.Options {
	return core.Options{
		Procs:          procs,
		Regions:        sc.RRTRegions,
		NodesPerRegion: sc.NodesPerRegion,
		Step:           0.05,
		Radius:         0.6,
		Profile:        profile,
		Seed:           sc.Seed,
	}
}

// rrtRoot is the radial planners' root, the workspace centre: free in
// every environment the RRT experiments grow in (mixed, mixed-30, free).
func rrtRoot() cspace.Config { return geom.V(0.5, 0.5, 0.5) }

// corners is e's corner-to-corner benchmark query (5 % in from each
// end of the bounds diagonal), which the two races solve.
func corners(e *env.Environment) (start, goal cspace.Config) {
	start, goal = make(cspace.Config, e.Dim()), make(cspace.Config, e.Dim())
	for d := range start {
		span := e.Bounds.Hi[d] - e.Bounds.Lo[d]
		start[d] = e.Bounds.Lo[d] + 0.05*span
		goal[d] = e.Bounds.Lo[d] + 0.95*span
	}
	return start, goal
}

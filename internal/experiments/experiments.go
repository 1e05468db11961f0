// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Every experiment is one entry of registry: an
// id, a kind and a function from a Scale to metrics.Tables whose
// rows/series mirror the paper's plot. EXPERIMENTS.md records
// paper-vs-measured shapes.
//
// Two scales are provided: Quick (seconds; used by `go test -bench` and
// CI) and Full (minutes; used by cmd/mpbench for paper-scale processor
// counts up to 3072).
package experiments

import (
	"slices"

	"parmp/internal/metrics"
)

// Scale sizes an experiment sweep.
type Scale struct {
	Name string
	// ModelProcs sweeps Fig 4(a); ModelImpProcs Fig 4(b).
	ModelProcs    []int
	ModelImpProcs []int
	ModelGrid     int
	// PRMProcs sweeps Figs 5(a,b); PRMHighProcs Fig 6.
	PRMProcs     []int
	PRMHighProcs []int
	// ProfileProcs fixes the processor count for Fig 5(c) and 7(a);
	// RemoteProcs for Fig 7(b); Fig9Procs the two Fig 9 panels.
	ProfileProcs int
	RemoteProcs  int
	Fig9Procs    [2]int
	// OpteronProcs sweeps Fig 8; RRTProcs Fig 10.
	OpteronProcs []int
	RRTProcs     []int
	// Workload knobs.
	PRMRegions       int
	PRMHighRegions   int
	SamplesPerRegion int
	RRTRegions       int
	NodesPerRegion   int
	Seed             uint64
	// RaceSeeds/RaceRounds size the RRT vs RRT-Connect planner race
	// (seeds per planner, growth-round budget per seed).
	RaceSeeds  int
	RaceRounds int
	// PortfolioTrials sizes the portfolio tail-latency experiment (base
	// seeds per configuration).
	PortfolioTrials int
	// RepartRounds is the growth-round budget of the closed-loop
	// repartitioning experiment: the cost model needs warm rounds to act,
	// so single-shot runs cannot show it.
	RepartRounds int
}

// Quick returns the fast scale used in tests and benchmarks.
func Quick() Scale {
	return Scale{
		Name:             "quick",
		ModelProcs:       []int{2, 4, 8, 16, 32, 64},
		ModelImpProcs:    []int{4, 8, 16, 32},
		ModelGrid:        16,
		PRMProcs:         []int{8, 16, 32, 64},
		PRMHighProcs:     []int{32, 64, 128, 256},
		ProfileProcs:     16,
		RemoteProcs:      32,
		Fig9Procs:        [2]int{8, 64},
		OpteronProcs:     []int{8, 16, 32, 64},
		RRTProcs:         []int{4, 8, 16, 32},
		PRMRegions:       512,
		PRMHighRegions:   2048,
		SamplesPerRegion: 16,
		RRTRegions:       256,
		NodesPerRegion:   10,
		Seed:             42,
		RaceSeeds:        5,
		RaceRounds:       64,
		PortfolioTrials:  12,
		RepartRounds:     4,
	}
}

// Full returns the paper-scale sweep (Hopper processor counts up to
// 3072). It takes minutes rather than seconds.
func Full() Scale {
	return Scale{
		Name:             "full",
		ModelProcs:       []int{2, 4, 8, 16, 32, 64, 128, 256},
		ModelImpProcs:    []int{16, 32, 64, 128},
		ModelGrid:        32,
		PRMProcs:         []int{96, 192, 384, 768},
		PRMHighProcs:     []int{384, 768, 1536, 3072},
		ProfileProcs:     192,
		RemoteProcs:      768,
		Fig9Procs:        [2]int{96, 768},
		OpteronProcs:     []int{32, 64, 128, 256},
		RRTProcs:         []int{8, 32, 64, 128, 256},
		PRMRegions:       24576,
		PRMHighRegions:   98304,
		SamplesPerRegion: 32,
		RRTRegions:       2048,
		NodesPerRegion:   16,
		Seed:             42,
		RaceSeeds:        5,
		RaceRounds:       128,
		PortfolioTrials:  40,
		RepartRounds:     6,
	}
}

// ScaleByName returns Quick or Full. ok is false for unknown names.
func ScaleByName(name string) (Scale, bool) {
	for _, sc := range []Scale{Quick(), Full()} {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scale{}, false
}

// kind says what an experiment is evidence for.
type kind int

const (
	figure   kind = iota // a figure of the paper's Section IV
	ablation             // a design-choice study DESIGN.md argues from
	study                // a follow-on experiment in virtual time
	race                 // a wall-clock race: minutes long, differs run to run
)

// entry is one experiment. Adding an experiment is adding an entry.
type entry struct {
	id   string
	kind kind
	run  func(Scale) []*metrics.Table
}

// one adapts a single-table experiment to entry.run.
func one(f func(Scale) *metrics.Table) func(Scale) []*metrics.Table {
	return func(sc Scale) []*metrics.Table { return []*metrics.Table{f(sc)} }
}

// registry lists every experiment, in the order Names prints and the
// groups run them.
var registry = []entry{
	{"fig4a", figure, one(fig4a)},
	{"fig4b", figure, one(fig4b)},
	{"fig5a", figure, one(fig5a)},
	{"fig5b", figure, one(fig5b)},
	{"fig5c", figure, one(fig5c)},
	{"fig6", figure, one(fig6)},
	{"fig7a", figure, one(fig7a)},
	{"fig7b", figure, one(fig7b)},
	{"fig8", figure, fig8},
	{"fig9", figure, fig9},
	{"fig10", figure, fig10},
	{"ablation-decomposition", ablation, one(ablationDecomposition)},
	{"ablation-stealchunk", ablation, one(ablationStealChunk)},
	{"ablation-weights", ablation, one(ablationWeights)},
	{"ablation-partitioner", ablation, one(ablationPartitioner)},
	{"ablation-victims", ablation, one(ablationVictimPolicy)},
	{"ablation-rrtstar", ablation, one(ablationRRTStar)},
	{"planners", race, func(sc Scale) []*metrics.Table { return Planners(sc, nil) }},
	{"portfolio", race, one(portfolioTail)},
	{"repartition", study, repartition},
	{"balance", study, balance},
	{"repair", study, repair},
}

// groups are the ids that run several entries. Both are virtual time and
// bit-stable, which the checked-in results/ files rely on.
var groups = []struct {
	id  string
	has func(entry) bool
}{
	{"ablations", func(e entry) bool { return e.kind == ablation }},
	{"all", func(e entry) bool { return e.kind == figure || e.kind == study }},
}

// lookup resolves id to the entries it runs, in registry order: one
// entry, a group's members, or for an unknown id none.
func lookup(id string) []entry {
	match := func(e entry) bool { return e.id == id }
	for _, g := range groups {
		if g.id == id {
			match = g.has
		}
	}
	var out []entry
	for _, e := range registry {
		if match(e) {
			out = append(out, e)
		}
	}
	return out
}

// ByName runs one experiment or group by id ("fig4a" ... "fig10",
// "ablations", "all"); some ids return multiple tables. ok is false for
// unknown ids.
func ByName(id string, sc Scale) ([]*metrics.Table, bool) {
	var out []*metrics.Table
	es := lookup(id)
	for _, e := range es {
		out = append(out, e.run(sc)...)
	}
	return out, len(es) > 0
}

// Names lists the ids understood by ByName: the registry in order, each
// group after its last member.
func Names() []string {
	var names []string
	for i, e := range registry {
		names = append(names, e.id)
		for _, g := range groups {
			if g.has(e) && !slices.ContainsFunc(registry[i+1:], g.has) {
				names = append(names, g.id)
			}
		}
	}
	return names
}

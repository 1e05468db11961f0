package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"parmp"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/knn"
	"parmp/internal/metrics"
	"parmp/internal/rng"
	"parmp/internal/steal"
)

const warmRaces = 24 // throwaway races per set-up

// treeWorkload is solve-tree: RRT-Connect engines racing from one corner
// of the walls environment to the opposite one. A race is Grow, then ask
// the snapshot for a path, until it has one or the round cap is reached;
// a censored race counts its full time and is not a failure. One cycle
// is many short races with derived seeds: the work a race does varies by
// half its mean from one engine seed to the next, so only a large
// sample has a median that different run seeds agree on.
type treeWorkload struct {
	sc         scale
	seed       uint64
	space      *cspace.Space
	root, goal cspace.Config
	opts       core.Options

	live []*parmp.Engine // last cycle's engines, kept for the heap reading
}

func newTreeWorkload(sc scale) *treeWorkload { return &treeWorkload{sc: sc} }

func (w *treeWorkload) setup(seed uint64) error {
	w.seed = seed
	e := env.ByName("walls")
	w.space = cspace.NewPointSpace(e)
	d := e.Dim()
	w.root, w.goal = make(cspace.Config, d), make(cspace.Config, d)
	var diag float64
	for i := 0; i < d; i++ {
		span := e.Bounds.Hi[i] - e.Bounds.Lo[i]
		w.root[i] = e.Bounds.Lo[i] + 0.05*span
		w.goal[i] = e.Bounds.Lo[i] + 0.95*span
		diag += span * span
	}
	w.opts = core.Options{
		Procs: 8, Regions: 32, NodesPerRegion: 40, Step: 0.05,
		Radius:   math.Sqrt(diag),
		Strategy: core.WorkStealing, Policy: steal.Hybrid{K: 8},
		HostWorkers: 1,
	}
	warm := newRecorder()
	for j := 0; j < warmRaces; j++ {
		w.race(derivedSeed(seed, saltWarm, j), 1, warm)
	}
	w.live = nil
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %v", warm.notes)
	}
	return nil
}

func (w *treeWorkload) close() { w.live = nil }

func (w *treeWorkload) cycle(rec *recorder) {
	w.live = w.live[:0]
	rec.exact["solved"] = 0
	for j := 0; j < w.sc.RacesPerCycle; j++ {
		o := w.race(derivedSeed(w.seed, saltEngine, j), 1, rec)
		rec.exact["virt_makespan"] += o.virt
		rec.exact["rounds"] += float64(o.rounds)
		rec.exact["nodes"] += float64(o.nodes)
		if o.solved {
			rec.exact["solved"]++
		}
	}
}

type raceOutcome struct {
	solved bool
	rounds int
	nodes  int
	virt   float64
}

// race runs one public engine to its first solution or the cap. The
// timed operation is one step of it — Grow, then ask the new snapshot
// for a path — which is what a caller polling an anytime planner waits
// for; the race as a whole (time to first solution, censored at the cap)
// is kept as the "race" part for the layer metrics.
func (w *treeWorkload) race(seed uint64, hostWorkers int, rec *recorder) raceOutcome {
	ctx := context.Background()
	opts := w.opts
	opts.Seed, opts.HostWorkers = seed, hostWorkers
	var out raceOutcome
	var path []cspace.Config
	rec.attempted++
	t0 := time.Now()
	eng, err := parmp.NewRRTConnectEngine(w.space, w.root, w.goal, opts)
	if err != nil {
		rec.fail("race %#x: %v", seed, err)
		return out
	}
	rec.other = append(rec.other, ms(time.Since(t0)))
	for !out.solved && out.rounds < w.sc.RaceCap {
		t := time.Now()
		if err := eng.Grow(ctx); err != nil {
			rec.fail("race %#x round %d: %v", seed, out.rounds, err)
			return out
		}
		path, out.solved = eng.Snapshot().Query(w.root, w.goal, 1)
		rec.lat = append(rec.lat, ms(time.Since(t)))
		rec.ops++
		out.rounds++
	}
	rec.part("race", time.Since(t0))
	w.live = append(w.live, eng)
	snap := eng.Snapshot()
	out.nodes, out.virt = snap.NumNodes(), snap.RRT().TotalTime
	dense := denseSpace(w.space)
	if out.solved {
		if err := checkPath(dense, path, w.root, w.goal); err != nil {
			rec.fail("race %#x: %v", seed, err)
		}
	}
	// Most races are censored, so the oracle also asks (untimed) for what
	// every tree must be able to give: the path to its own farthest node.
	far := w.farthest(snap.RRT())
	if reach, ok := snap.Query(w.root, far, 1); !ok {
		rec.fail("race %#x: no path to tree node %v", seed, far)
	} else if err := checkPath(dense, reach, w.root, far); err != nil {
		rec.fail("race %#x: path to tree node: %v", seed, err)
	}
	return out
}

// farthest returns the configuration of the tree node farthest from the
// root (the first such node in branch order).
func (w *treeWorkload) farthest(res *core.RRTResult) cspace.Config {
	far, best := w.root, 0.0
	for _, b := range res.Branches {
		if b == nil {
			continue
		}
		for _, nd := range b.Nodes {
			if d := w.space.Distance(w.root, nd.Q); d > best {
				far, best = nd.Q, d
			}
		}
	}
	return far
}

// traced re-runs cycle 0's races on the twin core.RRTConnectEngine with
// a span around each layer call a public race makes: the growth round,
// the snapshot's tree index build, and the path extraction.
func (w *treeWorkload) traced(tr *tracer, pub *recorder, m map[string]float64) {
	pubRaces := pub.parts["race"]
	rt := &timedRuntime{tr: tr}
	var twinExact raceOutcome
	solved := 0
	var total time.Duration
	var last *core.RRTResult
	for j := 0; j < w.sc.RacesPerCycle; j++ {
		opts := w.opts
		opts.Seed = derivedSeed(w.seed, saltEngine, j)
		opts.Runtime = rt
		t0 := time.Now()
		race := tr.begin("bench.race", -1, j)
		twin, err := core.NewRRTConnectEngine(w.space, w.root, w.goal, opts)
		if err != nil {
			pub.fail("twin: %v", err)
			return
		}
		ok := false
		for r := 0; r < w.sc.RaceCap && !ok; r++ {
			sp := tr.begin("core.tree_growround", race, j)
			rt.parent, rt.op = sp, j
			err := twin.GrowRound(nil)
			tr.end(sp)
			if err != nil {
				pub.fail("twin race %d: %v", j, err)
				return
			}
			sp = tr.begin("core.buildtreeindex", race, j)
			ix := core.BuildTreeIndex(twin.Result())
			tr.end(sp)
			sp = tr.begin("core.extractpath", race, j)
			_, ok = ix.ExtractPath(w.space, w.goal, nil)
			tr.end(sp)
			twinExact.rounds++
		}
		tr.end(race)
		total += time.Since(t0)
		last = twin.Result()
		twinExact.virt += last.TotalTime
		twinExact.nodes += last.TotalNodes()
		if ok {
			solved++
		}
	}
	for k, v := range map[string]float64{
		"virt_makespan": twinExact.virt,
		"rounds":        float64(twinExact.rounds),
		"solved":        float64(solved),
	} {
		if pub.exact[k] != v {
			pub.fail("twin parity: %s public %v, twin %v", k, pub.exact[k], v)
		}
	}

	ls := tr.layers()
	grow := ls["core.tree_growround"]
	m["core.tree_growround_ms"] = grow.meanMS()
	m["core.buildtreeindex_ms"] = ls["core.buildtreeindex"].meanMS()
	m["core.extractpath_us"] = ls["core.extractpath"].meanUS()
	m["sched.replay_ms"] = ms(ls["sched.replay"].Total) / float64(max(1, grow.Count))
	m["sched.replay_calls"] = float64(ls["sched.replay"].Count)
	m["sched.virt_makespan"] = twinExact.virt
	m["core.host_self_ms"] = grow.selfMeanMS()
	m["rrt.nodes_per_s"] = float64(twinExact.nodes) / grow.Total.Seconds()
	m["solve.rounds_total"] = float64(twinExact.rounds)
	m["solve.mean_ms"] = metrics.Mean(pubRaces)
	m["solve.p50_ms"] = median(pubRaces)
	m["solve.solved_frac"] = pub.exact["solved"] / float64(w.sc.RacesPerCycle)
	m["bench.trace_overhead_frac"] = total.Seconds()/pub.seconds() - 1

	// The first races again, per host-worker count.
	hostSpeedup(pub, m, func(hw int, rec *recorder) {
		for j := 0; j < min(w.sc.RacesPerCycle, 16); j++ {
			w.race(derivedSeed(w.seed, saltEngine, j), hw, rec)
		}
	})

	// The tree planners' nearest-neighbour structure, filled with the
	// last race's tree nodes and probed with uniform targets as an
	// extension step would.
	dyn := knn.NewDynamic()
	for _, b := range last.Branches {
		if b == nil {
			continue
		}
		for _, nd := range b.Nodes {
			dyn.Add(nd.Q)
		}
	}
	r := rng.Derive(w.seed, saltKernel)
	targets := make([]cspace.Config, 1024)
	for i := range targets {
		targets[i] = w.space.SampleIn(w.space.Bounds, r, nil)
	}
	m["knn.dynamic_nearest_ns"] = float64(timePer(w.sc.KernelIters, func(i int) {
		dyn.Nearest(targets[i%len(targets)], 1)
	}).Nanoseconds())
}

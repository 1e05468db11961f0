package main

import (
	"context"
	"fmt"
	"time"

	"parmp"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/prm"
	"parmp/internal/sched"
	"parmp/internal/work"
)

const churnScenario = "warehouse-forklift"

// growWorkload is grow-prm and commit-churn: a PRM parmp.Engine grown
// for a fixed number of rounds per cycle, one engine (derived seed) per
// cycle. commit-churn interleaves every round with a scripted
// environment mutation, so the roadmap is also repaired each round.
//
//   - grow-prm: 6-DOF rigid box in med-cube, 32 samples in each of 256
//     regions per round. Collision checking and node connection do
//     nearly all the work; the serial commit is small.
//   - commit-churn: point robot in the warehouse, 8 samples per region.
//     Sampling is cheap, so merging the roadmap, rebuilding the index and
//     repairing both after each mutation dominate and grow with the
//     roadmap.
type growWorkload struct {
	sc    scale
	churn bool
	seed  uint64
	opts  core.Options
	// rounds per engine: Grow calls (grow-prm) or (Grow, ApplyDelta)
	// pairs (commit-churn).
	rounds int

	space *cspace.Space // grow-prm's space; commit-churn builds one per engine
	// Probe query of commit-churn, asked (untimed) after every repair and
	// checked against the harness's own copy of the world at that epoch.
	probeStart, probeGoal cspace.Config

	live *parmp.Engine // last cycle's engine, kept for the heap reading
}

func newGrowWorkload(sc scale, churn bool) *growWorkload {
	w := &growWorkload{sc: sc, churn: churn}
	w.opts = core.Options{
		Procs: 8, Regions: 256, Strategy: core.Repartition,
		HostWorkers: 1,
	}
	if churn {
		w.opts.SamplesPerRegion = 8
		w.rounds = sc.ChurnIters
		w.probeStart, w.probeGoal = cspace.Config{0.05, 0.05}, cspace.Config{0.95, 0.95}
	} else {
		w.opts.SamplesPerRegion = 32
		w.rounds = sc.GrowRounds
	}
	return w
}

// newWorld returns a fresh space for one engine. commit-churn also gets
// the mutation script twice: as public mutations for parmp.Engine and as
// raw moves for the harness's mirror world and the twin engine.
func (w *growWorkload) newWorld() (space *cspace.Space, script func(int) []parmp.Mutation, moves func(int) []env.Move) {
	if !w.churn {
		return w.space, nil, nil
	}
	sc, _ := parmp.DynamicScenarioByName(churnScenario)
	e, script := sc.Build()
	_, moves = env.WarehouseForkliftMoves()
	return cspace.NewPointSpace(e), script, moves
}

func (w *growWorkload) engineOpts(salt uint64, i int) core.Options {
	o := w.opts
	o.Seed = derivedSeed(w.seed, salt, i)
	return o
}

func (w *growWorkload) setup(seed uint64) error {
	w.seed = seed
	if !w.churn {
		e := env.ByName("med-cube")
		w.space = cspace.NewRigidBodySpace(e, cspace.NewRigidBox(0.03, 0.02, 0.01))
	} else if _, ok := parmp.DynamicScenarioByName(churnScenario); !ok {
		return fmt.Errorf("scenario %s missing", churnScenario)
	}
	// Warm-up: a throwaway engine through the same code, so the heap is
	// sized and lazily built state exists before timing starts.
	warm := newRecorder()
	rounds := w.rounds
	w.rounds = max(1, rounds/4)
	w.run(w.engineOpts(saltWarm, 0), warm)
	w.rounds = rounds
	w.live = nil
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %v", warm.notes)
	}
	return nil
}

func (w *growWorkload) close() { w.live = nil }

func (w *growWorkload) cycle(rec *recorder) {
	w.run(w.engineOpts(saltEngine, 0), rec)
	if rec.failed > 0 {
		return
	}
	snap := w.live.Snapshot()
	rec.exact["virt_makespan"] = snap.PRM().TotalTime
	rec.exact["nodes"] = float64(snap.NumNodes())
	rec.exact["repair_checked_edges"] = float64(snap.PRM().Repairs.CheckedEdges)
	rec.exact["repair_removed_nodes"] = float64(snap.PRM().Repairs.RemovedNodes)
}

// run grows one public engine for w.rounds rounds. One operation is one
// round: Engine.Grow, plus Engine.ApplyDelta on commit-churn.
func (w *growWorkload) run(opts core.Options, rec *recorder) {
	ctx := context.Background()
	space, script, moves := w.newWorld()
	t0 := time.Now()
	eng, err := parmp.NewEngine(space, opts)
	if err != nil {
		rec.attempted++
		rec.fail("NewEngine: %v", err)
		return
	}
	rec.other = append(rec.other, ms(time.Since(t0)))
	w.live = eng
	var mirror *env.Environment
	if w.churn {
		mirror, _ = env.WarehouseForkliftMoves()
	}
	for r := 0; r < w.rounds; r++ {
		rec.attempted++
		t0 := time.Now()
		err := eng.Grow(ctx)
		grown := time.Since(t0)
		if err == nil && w.churn {
			_, err = eng.ApplyDelta(ctx, script(r)...)
		}
		d := time.Since(t0)
		if err != nil {
			rec.fail("round %d: %v", r, err)
			return
		}
		rec.part("grow", grown)
		if w.churn {
			rec.part("repair", d-grown)
		}
		rec.lat = append(rec.lat, ms(d))
		rec.ops++
		if w.churn {
			if err := w.probe(eng.Snapshot(), mirror, moves(r)); err != nil {
				rec.fail("round %d: %v", r, err)
			}
		}
	}
}

// probe advances the mirror world by one scripted step and checks the
// engine's repaired snapshot against it: same epoch, and the probe path
// (when the roadmap connects the two corners) collision-free in the
// world as it is now — a stale edge through a forklift's new position is
// exactly what this catches.
func (w *growWorkload) probe(snap *parmp.Snapshot, mirror *env.Environment, step []env.Move) error {
	for _, mv := range step {
		if _, err := mirror.MoveObstacle(mv.Index, mv.By); err != nil {
			return fmt.Errorf("mirror world: %w", err)
		}
	}
	if snap.Epoch() != mirror.Epoch {
		return fmt.Errorf("snapshot epoch %d, world epoch %d", snap.Epoch(), mirror.Epoch)
	}
	path, ok := snap.Query(w.probeStart, w.probeGoal, 8)
	if !ok {
		return nil
	}
	return checkPath(denseSpace(cspace.NewPointSpace(mirror)), path, w.probeStart, w.probeGoal)
}

// timedRuntime is the decorator around the virtual-time scheduler that
// Options.Runtime exists for: one sched.replay span per phase replay.
type timedRuntime struct {
	tr     *tracer
	parent int // span enclosing the engine call in flight
	op     int
}

func (t *timedRuntime) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	sp := t.tr.begin("sched.replay", t.parent, t.op)
	defer t.tr.end(sp)
	return dist.Runtime.Run(cfg, queues)
}

// traced drives the twin: a core.PRMEngine with cycle 0's options, which
// is deterministic and therefore commits what the public engine
// committed, called through the same sequence of layer functions that
// parmp.Engine.Grow and ApplyDelta run — with a span around each.
func (w *growWorkload) traced(tr *tracer, pub *recorder, m map[string]float64) {
	opts := w.engineOpts(saltEngine, 0)
	pubSnap := w.live.Snapshot()
	pubGrow, pubRepair := pub.parts["grow"], pub.parts["repair"]
	rt := &timedRuntime{tr: tr}
	opts.Runtime = rt
	space, _, moves := w.newWorld()
	twin, err := core.NewPRMEngine(space, opts)
	if err != nil {
		pub.fail("twin: %v", err)
		return
	}
	var ix *prm.Index
	var repairs core.RepairStats
	var total time.Duration
	for r := 0; r < w.rounds; r++ {
		t0 := time.Now()
		grow := tr.begin("parmp.grow", -1, r)
		sp := tr.begin("core.growround", grow, r)
		rt.parent, rt.op = sp, r
		err := twin.GrowRound(nil)
		tr.end(sp)
		if err != nil {
			pub.fail("twin round %d: %v", r, err)
			return
		}
		sp = tr.begin("prm.buildindex", grow, r)
		ix = prm.BuildIndex(twin.Result().Roadmap)
		tr.end(sp)
		tr.end(grow)

		if w.churn {
			ad := tr.begin("parmp.applydelta", -1, r)
			clone := space.Env.Clone()
			var delta env.Delta
			for j, mv := range moves(r) {
				d, err := clone.MoveObstacle(mv.Index, mv.By)
				if err != nil {
					pub.fail("twin move: %v", err)
					return
				}
				if j == 0 {
					delta = d
				} else {
					delta = delta.Merge(d)
				}
			}
			next := space.WithEnv(clone)
			sp = tr.begin("prm.affected", ad, r)
			cand := ix.AffectedVertices(cspace.NewDeltaChecker(space, delta))
			if cand == nil {
				cand = []int{}
			}
			tr.end(sp)
			sp = tr.begin("core.applydelta", ad, r)
			rt.parent = sp
			rep, err := twin.ApplyDelta(next, delta, cand, nil)
			tr.end(sp)
			if err != nil {
				pub.fail("twin repair %d: %v", r, err)
				return
			}
			space = next
			if rep.VertexRemap != nil {
				sp = tr.begin("prm.repairindex", ad, r)
				ix = prm.RepairIndex(ix, twin.Result().Roadmap, rep.VertexRemap, rep.TouchedVertices)
				tr.end(sp)
			}
			tr.end(ad)
			repairs.Add(rep.Stats)
		}
		total += time.Since(t0)
	}

	// Parity: the twin must have committed exactly what the public
	// engine did, or its layer numbers describe some other computation.
	res := twin.Result()
	twinExact := map[string]float64{
		"virt_makespan":        res.TotalTime,
		"nodes":                float64(ix.NumNodes()),
		"repair_checked_edges": float64(repairs.CheckedEdges),
		"repair_removed_nodes": float64(repairs.RemovedNodes),
	}
	for k, v := range twinExact {
		if pub.exact[k] != v {
			pub.fail("twin parity: %s public %v, twin %v", k, pub.exact[k], v)
		}
	}

	ls := tr.layers()
	m["parmp.grow_ms"] = ls["parmp.grow"].meanMS()
	m["parmp.publish_self_ms"] = ls["parmp.grow"].selfMeanMS()
	m["core.growround_ms"] = ls["core.growround"].meanMS()
	m["core.host_self_ms"] = ls["core.growround"].selfMeanMS()
	m["prm.buildindex_ms"] = ls["prm.buildindex"].meanMS()
	m["sched.replay_ms"] = ms(ls["sched.replay"].Total) / float64(w.rounds)
	m["sched.replay_calls"] = float64(ls["sched.replay"].Count)
	m["sched.virt_makespan"] = res.TotalTime
	if w.churn {
		m["parmp.applydelta_ms"] = ls["parmp.applydelta"].meanMS()
		m["parmp.applydelta_self_ms"] = ls["parmp.applydelta"].selfMeanMS()
		m["prm.affected_ms"] = ls["prm.affected"].meanMS()
		m["core.applydelta_ms"] = ls["core.applydelta"].meanMS()
		m["prm.repairindex_ms"] = ms(ls["prm.repairindex"].Total) / float64(w.rounds)
		m["repair.checked_edges"] = float64(repairs.CheckedEdges)
		m["repair.removed_nodes"] = float64(repairs.RemovedNodes)
	}
	m["bench.trace_overhead_frac"] = total.Seconds()/pub.seconds() - 1

	// The public pass, seen per round: throughput and how the round cost
	// changes as the roadmap grows (last quarter of the rounds over the
	// first quarter).
	q := max(1, len(pubGrow)/4)
	m["commit.cost_growth"] = metrics.Mean(pubGrow[len(pubGrow)-q:]) / metrics.Mean(pubGrow[:q])
	m["grow.round_p50_ms"] = quantile(pubGrow, 0.5)
	m["grow.round_p90_ms"] = quantile(pubGrow, 0.9)
	if w.churn {
		m["repair.p50_ms"] = quantile(pubRepair, 0.5)
	}
	m["parmp.nodes_per_s"] = float64(pubSnap.NumNodes()) / pub.seconds()

	// The first half of the cycle's rounds again, per host-worker count.
	rounds := w.rounds
	w.rounds = max(1, rounds/2)
	hostSpeedup(pub, m, func(hw int, rec *recorder) {
		o := w.engineOpts(saltEngine, 0)
		o.HostWorkers = hw
		w.run(o, rec)
	})
	w.rounds, w.live = rounds, nil

	w.kernels(pubSnap.PRM(), space, m)

	// Retained bytes per thousand roadmap nodes: the snapshot alone
	// (engine dropped), against nothing live.
	w.live, twin, ix = nil, nil, nil
	withSnap := heapMB()
	knodes := float64(pubSnap.NumNodes()) / 1e3
	pubSnap = nil
	m["snapshot.heap_kb_per_knode"] = (withSnap - heapMB()) * 1024 / knodes
}

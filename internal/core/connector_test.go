package core

import (
	"reflect"
	"slices"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// replayTap is an Options.Runtime decorator that records how many tasks
// each virtual-time replay was handed and, when armed, closes a stop
// channel as the k-th replay from arm starts — so that replay itself
// returns stopped, not the barrier check after it.
type replayTap struct {
	tasks []int
	k     int
	stop  chan struct{}
}

func (r *replayTap) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	n := 0
	for _, q := range queues {
		n += len(q)
	}
	r.tasks = append(r.tasks, n)
	if len(r.tasks) == r.k {
		close(r.stop)
	}
	return dist.Runtime.Run(cfg, queues)
}

func (r *replayTap) arm(k int) <-chan struct{} {
	r.tasks, r.k, r.stop = nil, k, make(chan struct{})
	return r.stop
}

// A pair is one connector: however many rounds and repairs an engine has
// been through, a repair replays one connector task per adjacent pair of
// the region graph (one per pair PER ROUND read 1 685 here), and every
// cross-region entry of the committed rows joins an adjacent pair. An
// aborted round leaves the committed rows and the published result as
// they were.
func TestBoundarySetsPerPair(t *testing.T) {
	world, script := env.WarehouseForkliftMoves()
	s := cspace.NewPointSpace(world)
	tap := &replayTap{}
	opts := quickOpts(8, 64)
	opts.SamplesPerRegion = 8
	opts.Runtime = tap
	e, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	const regions, pairs = 64, 112
	if len(e.pairs) != pairs {
		t.Fatalf("%d adjacent pairs, want %d", len(e.pairs), pairs)
	}
	for k := 0; k < 16; k++ {
		growPRM(t, e, 1)
		var d env.Delta
		world, d = scriptedStep(t, world, script(k))
		s = s.WithEnv(world)
		tap.arm(0)
		if _, err := e.ApplyDelta(s, d, nil, nil); err != nil {
			t.Fatal(err)
		}
		if want := []int{regions, pairs}; !slices.Equal(tap.tasks, want) {
			t.Fatalf("repair %d replayed %v tasks (repair, connectors), want %v", k, tap.tasks, want)
		}
	}
	adjacent := map[[2]int]bool{}
	for _, pr := range e.pairs {
		adjacent[pr] = true
	}
	g, cross := e.g, 0
	for v := 0; v < g.NumVertices(); v++ {
		a := g.Vertex(graph.ID(v)).Region
		to, _ := g.Neighbors(graph.ID(v))
		for _, u := range to {
			if b := g.Vertex(u).Region; b != a {
				cross++
				if !adjacent[[2]int{min(a, b), max(a, b)}] {
					t.Fatalf("entry %d -> %d joins regions %d and %d, not an adjacent pair", v, u, a, b)
				}
			}
		}
	}
	if cross == 0 {
		t.Fatal("16 rounds committed no boundary edge")
	}
	if e.Result().Roadmap.G != g {
		t.Fatal("the published roadmap is not the committed one")
	}
	assertRoadmapValid(t, s, e.Result().Roadmap)

	// A round stopped in its region-connect replay — the last checkpoint
	// before commit, every pair's edges already found — books nothing.
	res := e.Result()
	if err := e.GrowRound(tap.arm(3)); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if want := []int{regions, regions, pairs}; !slices.Equal(tap.tasks, want) {
		t.Fatalf("aborted round replayed %v tasks, want %v", tap.tasks, want)
	}
	if e.g != g || e.Result() != res {
		t.Fatal("aborted round changed the committed roadmap or the published result")
	}
}

// costPhase has two checkpoints — after the host-concurrent pass and
// after the replay — and a stop at either abandons the operation:
// ErrStopped, region ownership and the phase-report log as on entry, the
// published result untouched, and the next uninterrupted operation
// commits what an engine that was never stopped commits.
func TestCostPhaseStops(t *testing.T) {
	base := env.MedCube()
	mutated, delta := mutateAddBox(t, base, geom.Box3(0.05, 0.1, 0.1, 0.3, 0.3, 0.9))
	build := func(tap *replayTap) *PRMEngine {
		opts := quickOpts(4, 64)
		opts.Policy = steal.Hybrid{K: 2}
		opts.HostWorkers = hostWorkers()
		opts.Runtime = tap
		e, err := NewPRMEngine(cspace.NewPointSpace(base), opts)
		if err != nil {
			t.Fatal(err)
		}
		growPRM(t, e, 1)
		return e
	}
	ops := []struct {
		name, phase string
		replay      int // the connector phase's position among the operation's replays
		run         func(e *PRMEngine, stop <-chan struct{}) error
	}{
		{"growth", "region-connect", 3, func(e *PRMEngine, stop <-chan struct{}) error { return e.GrowRound(stop) }},
		{"repair", "repair-boundary", 2, func(e *PRMEngine, stop <-chan struct{}) error {
			_, err := e.ApplyDelta(e.s.WithEnv(mutated), delta, nil, stop)
			return err
		}},
	}
	for _, op := range ops {
		ref := build(&replayTap{})
		if err := op.run(ref, nil); err != nil {
			t.Fatal(err)
		}
		want := pinRoadmap(ref.Result())

		tap := &replayTap{}
		e := build(tap)
		check := func(when string, stop <-chan struct{}) {
			t.Helper()
			res, owner, reports := e.Result(), slices.Clone(e.rg.Owner), len(e.pl.reports)
			if err := op.run(e, stop); err != ErrStopped {
				t.Fatalf("%s stopped %s: err = %v, want ErrStopped", op.name, when, err)
			}
			if e.Result() != res || !slices.Equal(e.rg.Owner, owner) || len(e.pl.reports) != reports {
				t.Fatalf("%s stopped %s: result replaced %v, ownership moved %v, report log %d -> %d",
					op.name, when, e.Result() != res, !slices.Equal(e.rg.Owner, owner), reports, len(e.pl.reports))
			}
		}

		// During the host pass: the stop fires as the connector phase's
		// checks come back from the executor, so the replay never starts.
		stop := make(chan struct{})
		hostPhaseObserver = func(phase string, _ sched.Config, _ [][]work.Task, _ sched.Report) {
			if phase == op.phase {
				close(stop)
			}
		}
		tap.arm(0)
		check("in the host pass", stop)
		hostPhaseObserver = nil
		if len(tap.tasks) != op.replay-1 {
			t.Fatalf("%s stopped in the host pass still ran %d replays, want %d", op.name, len(tap.tasks), op.replay-1)
		}

		// During the replay: the virtual-time backend itself reports stopped.
		check("in the replay", tap.arm(op.replay))

		if err := op.run(e, nil); err != nil {
			t.Fatal(err)
		}
		if got := pinRoadmap(e.Result()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s after two aborts committed\n got  %#v\n want %#v", op.name, got, want)
		}
	}
}

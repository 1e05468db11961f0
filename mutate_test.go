package parmp

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// assertPathValidIn checks that every configuration and every segment of
// path is collision-free in space.
func assertPathValidIn(t *testing.T, space *Space, path []Config) {
	t.Helper()
	for i, q := range path {
		if !space.Valid(q, nil) {
			t.Fatalf("path config %d (%v) collides in the mutated world", i, q)
		}
		if i > 0 && !space.LocalPlan(path[i-1], q, nil) {
			t.Fatalf("path segment %d-%d crosses the mutated obstacle", i-1, i)
		}
	}
}

// The acceptance-criteria stale-query test: a query issued after
// ApplyDelta commits must never return a path through the new obstacle.
func TestApplyDeltaStaleQueryNeverServed(t *testing.T) {
	ctx := context.Background()
	space := NewPointSpace(EnvironmentByName("free"))
	eng, err := NewEngine(space, testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	start, goal := V(0.05, 0.5, 0.5), V(0.95, 0.5, 0.5)
	before := eng.Snapshot()
	if _, ok := before.Query(start, goal, 8); !ok {
		t.Fatal("free-space query should succeed before mutation")
	}

	// A cube in the middle: paths must re-route around it.
	cube := NewBoxObstacle(V(0.4, 0.4, 0.4), V(0.6, 0.6, 0.6))
	st, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: cube})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas != 1 || st.RemovedNodes == 0 {
		t.Fatalf("cube delta should remove nodes: %+v", st)
	}
	snap := eng.Snapshot()
	if snap.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch())
	}
	if snap.Generation() <= before.Generation() {
		t.Fatalf("generation %d did not advance past %d", snap.Generation(), before.Generation())
	}
	if snap.Rounds() != before.Rounds() {
		t.Fatalf("repair changed rounds: %d -> %d", before.Rounds(), snap.Rounds())
	}
	path, ok := snap.Query(start, goal, 8)
	if !ok {
		t.Fatal("query should re-route around the cube")
	}
	assertPathValidIn(t, snap.space, path)

	// A full slab: no path can exist — any hit would be stale.
	slab := NewBoxObstacle(V(0.45, 0, 0), V(0.55, 1, 1))
	if _, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: slab}); err != nil {
		t.Fatal(err)
	}
	snap2 := eng.Snapshot()
	if snap2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", snap2.Epoch())
	}
	if p, ok := snap2.Query(start, goal, 8); ok {
		t.Fatalf("stale path served through the slab: %v", p)
	}

	// Snapshot isolation: the pre-mutation snapshot still answers
	// against the world it was built in.
	if _, ok := before.Query(start, goal, 8); !ok {
		t.Fatal("old snapshot lost its answer")
	}

	// The engine is not torn: it keeps growing in the mutated world and
	// every new sample respects the slab.
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	snap3 := eng.Snapshot()
	if _, ok := snap3.Query(start, goal, 8); ok {
		t.Fatal("regrown roadmap reconnected through a solid slab")
	}
	if snap3.PRM().Repairs.Deltas != 2 {
		t.Fatalf("Repairs.Deltas = %d, want 2", snap3.PRM().Repairs.Deltas)
	}
}

// A delta that removes every node leaves each region's kd-tree over no
// points; the next invalidating delta must still scope its re-validation
// through that snapshot's index, and the engine must grow again after.
func TestApplyDeltaAfterEveryNodeRemoved(t *testing.T) {
	ctx := context.Background()
	space := NewPointSpace(EnvironmentByName("free"))
	eng, err := NewEngine(space, testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().NumNodes() == 0 {
		t.Fatal("no roadmap to remove")
	}
	all := NewBoxObstacle(V(-0.1, -0.1, -0.1), V(1.1, 1.1, 1.1))
	if _, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: all}); err != nil {
		t.Fatal(err)
	}
	if n := eng.Snapshot().NumNodes(); n != 0 {
		t.Fatalf("%d nodes survive an obstacle over the whole space", n)
	}
	cube := NewBoxObstacle(V(0.4, 0.4, 0.4), V(0.6, 0.6, 0.6))
	st, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: cube})
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedNodes != 0 {
		t.Fatalf("an empty roadmap lost %d nodes", st.RemovedNodes)
	}
	if p, ok := eng.Snapshot().Query(V(0.05, 0.5, 0.5), V(0.95, 0.5, 0.5), 8); ok {
		t.Fatalf("an empty roadmap served a path: %v", p)
	}
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
}

// A world that never mutates must plan exactly as if the mutation API
// did not exist: a zero-mutation ApplyDelta is a no-op, and a
// removal-only delta leaves the committed roadmap bit-identical.
func TestApplyDeltaFrozenWorldInvariance(t *testing.T) {
	ctx := context.Background()
	opts := testEngineOpts()

	grow2 := func(mid func(e *Engine)) []byte {
		eng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Grow(ctx); err != nil {
			t.Fatal(err)
		}
		if mid != nil {
			mid(eng)
		}
		if err := eng.Grow(ctx); err != nil {
			t.Fatal(err)
		}
		return roadmapBytes(t, eng.Snapshot().PRM().Roadmap)
	}

	plain := grow2(nil)
	noop := grow2(func(e *Engine) {
		st, err := e.ApplyDelta(ctx)
		if err != nil || st != (RepairStats{}) {
			t.Fatalf("no-op ApplyDelta: %+v, %v", st, err)
		}
	})
	if !bytes.Equal(plain, noop) {
		t.Fatal("zero-mutation ApplyDelta changed the roadmap")
	}

	// Removal-only: repair never invalidates, the roadmap is unchanged,
	// but the epoch and generation still roll over (cache invalidation).
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	m1 := roadmapBytes(t, before.PRM().Roadmap)
	st, err := eng.ApplyDelta(ctx, RemoveObstacle{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedNodes != 0 || st.CheckedNodes != 0 {
		t.Fatalf("removal-only delta did repair work: %+v", st)
	}
	snap := eng.Snapshot()
	if got := roadmapBytes(t, snap.PRM().Roadmap); !bytes.Equal(m1, got) {
		t.Fatal("removal-only delta changed the roadmap")
	}
	if snap.Epoch() != 1 || snap.Generation() != before.Generation()+1 {
		t.Fatalf("epoch/generation = %d/%d, want 1/%d", snap.Epoch(), snap.Generation(), before.Generation()+1)
	}
}

// Invalid mutations reject atomically: nothing applies, the snapshot
// pointer is untouched, and the error matches the sentinel.
func TestApplyDeltaRejectsInvalidMutations(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	cases := []struct {
		name string
		muts []Mutation
		want error
	}{
		{"bad index", []Mutation{RemoveObstacle{Index: 99}}, ErrNoSuchObstacle},
		{"degenerate sphere", []Mutation{AddObstacle{Obstacle: NewSphereObstacle(V(0.5, 0.5, 0.5), -1)}}, ErrDegenerateObstacle},
		{"move out of bounds", []Mutation{MoveObstacle{Index: 0, By: V(5, 5, 5)}}, ErrOutOfBounds},
		{"atomic batch", []Mutation{
			AddObstacle{Obstacle: NewBoxObstacle(V(0.1, 0.1, 0.1), V(0.2, 0.2, 0.2))},
			RemoveObstacle{Index: 99},
		}, ErrNoSuchObstacle},
	}
	for _, tc := range cases {
		st, err := eng.ApplyDelta(ctx, tc.muts...)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if st != (RepairStats{}) {
			t.Fatalf("%s: stats on failure: %+v", tc.name, st)
		}
		if eng.Snapshot() != before {
			t.Fatalf("%s: failed mutation published a snapshot", tc.name)
		}
	}
	if eng.Snapshot().Epoch() != 0 {
		t.Fatal("failed mutations bumped the epoch")
	}
}

// Tree engines repair too: pruned trees keep answering valid paths in
// the mutated world and keep growing afterwards.
func TestApplyDeltaTreeEngines(t *testing.T) {
	ctx := context.Background()
	root, goal := V(0.1, 0.1, 0.1), V(0.9, 0.9, 0.9)
	build := func(kind string) *Engine {
		space := NewPointSpace(EnvironmentByName("free"))
		opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 25, Step: 0.06, Seed: 3}
		var (
			eng *Engine
			err error
		)
		if kind == "rrt" {
			eng, err = NewRRTEngine(space, root, opts)
		} else {
			eng, err = NewRRTConnectEngine(space, root, goal, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, kind := range []string{"rrt", "rrtconnect"} {
		t.Run(kind, func(t *testing.T) {
			eng := build(kind)
			if err := eng.GrowN(ctx, 2); err != nil {
				t.Fatal(err)
			}
			before := eng.Snapshot()
			// Near the root, where the radial trees are dense — a central
			// obstacle can fall entirely between branches and repair
			// nothing.
			st, err := eng.ApplyDelta(ctx, AddObstacle{
				Obstacle: NewSphereObstacle(V(0.25, 0.25, 0.25), 0.12),
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Deltas != 1 || st.CheckedNodes == 0 {
				t.Fatalf("delta did no work: %+v", st)
			}
			snap := eng.Snapshot()
			if snap.Epoch() != 1 || snap.Generation() <= before.Generation() {
				t.Fatalf("epoch/gen = %d/%d after %d", snap.Epoch(), snap.Generation(), before.Generation())
			}
			if path, ok := snap.Query(root, goal, 1); ok {
				assertPathValidIn(t, snap.space, path)
			}
			if err := eng.Grow(ctx); err != nil {
				t.Fatal(err)
			}
			snap2 := eng.Snapshot()
			if snap2.NumNodes() <= snap.NumNodes() {
				t.Fatal("engine stopped growing after repair")
			}
			if path, ok := snap2.Query(root, goal, 1); ok {
				assertPathValidIn(t, snap2.space, path)
			}
			if snap2.RRT().Repairs.Deltas != 1 {
				t.Fatalf("Repairs.Deltas = %d, want 1", snap2.RRT().Repairs.Deltas)
			}
		})
	}
}

// Epoch and generation observed through Snapshot must be monotone under
// concurrent mutation, growth and queries (run with -race).
func TestApplyDeltaEpochMonotoneConcurrent(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("free")), Options{
		Procs: 4, Regions: 16, SamplesPerRegion: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	const writers, deltasPerWriter = 2, 5
	var readers, producers sync.WaitGroup
	errs := make(chan error, writers+2)
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen, lastEpoch uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := eng.Snapshot()
				if s.Generation() < lastGen || s.Epoch() < lastEpoch {
					errs <- errors.New("snapshot generation or epoch went backwards")
					return
				}
				lastGen, lastEpoch = s.Generation(), s.Epoch()
				s.Query(V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95), 4)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		w := w
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < deltasPerWriter; i++ {
				c := 0.05 + 0.03*float64(w*deltasPerWriter+i)
				_, err := eng.ApplyDelta(ctx, AddObstacle{
					Obstacle: NewSphereObstacle(V(c, 0.05, 0.05), 0.02),
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	producers.Add(1)
	go func() {
		defer producers.Done()
		if err := eng.GrowN(ctx, 2); err != nil {
			errs <- err
		}
	}()
	producers.Wait()
	close(done)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := eng.Snapshot().Epoch(); got != writers*deltasPerWriter {
		t.Fatalf("final epoch = %d, want %d", got, writers*deltasPerWriter)
	}
}

// The scripted scenarios drive an engine end to end through the public
// API: warehouse forklifts patrol, the roadmap repairs each step, and
// the door scenario severs (then restores) the only passage.
func TestDynamicScenariosDriveEngine(t *testing.T) {
	ctx := context.Background()

	sc, ok := DynamicScenarioByName("warehouse-forklift")
	if !ok {
		t.Fatal("warehouse-forklift scenario missing")
	}
	e, step := sc.Build()
	eng, err := NewEngine(NewPointSpace(e), Options{
		Procs: 4, Regions: 36, SamplesPerRegion: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := eng.ApplyDelta(ctx, step(k)...); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if err := eng.Grow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	if snap.PRM().Repairs.Deltas != 5 {
		t.Fatalf("Repairs.Deltas = %d, want 5", snap.PRM().Repairs.Deltas)
	}
	// 3 forklifts move per step: epoch counts every committed mutation.
	if snap.Epoch() != 15 {
		t.Fatalf("epoch = %d, want 15", snap.Epoch())
	}

	door, ok := DynamicScenarioByName("door")
	if !ok {
		t.Fatal("door scenario missing")
	}
	de, dstep := door.Build()
	deng, err := NewEngine(NewPointSpace(de), testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := deng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	start, goal := V(0.25, 0.2, 0.5), V(0.75, 0.2, 0.5)
	if _, ok := deng.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("doorway query should succeed while the door is open")
	}
	if _, err := deng.ApplyDelta(ctx, dstep(0)...); err != nil { // close
		t.Fatal(err)
	}
	if p, ok := deng.Snapshot().Query(start, goal, 8); ok {
		t.Fatalf("closed door still traversed: %v", p)
	}
	if _, err := deng.ApplyDelta(ctx, dstep(1)...); err != nil { // open
		t.Fatal(err)
	}
	if err := deng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := deng.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("reopened doorway never reconnected after regrowth")
	}
}

// Portfolio.ApplyDelta keeps every racer's world in lockstep — before
// the race starts, mid-race, and after a winner is decided.
func TestPortfolioApplyDelta(t *testing.T) {
	ctx := context.Background()
	space := NewPointSpace(EnvironmentByName("free"))
	start, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	pf, err := NewPortfolio(space, start, goal, Options{
		Procs: 4, Regions: 16, SamplesPerRegion: 8, Seed: 2,
	}, PortfolioOptions{Racers: 2, MaxWaves: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate before any wave: racer 0's first engine repairs, and racers
	// built later inherit the mutated template.
	cube := NewBoxObstacle(V(0.4, 0.4, 0.4), V(0.6, 0.6, 0.6))
	if _, err := pf.ApplyDelta(ctx, AddObstacle{Obstacle: cube}); err != nil {
		t.Fatal(err)
	}
	if pf.space.Env.Epoch != 1 {
		t.Fatalf("template epoch = %d, want 1", pf.space.Env.Epoch)
	}
	if _, err := pf.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	snap := pf.Snapshot()
	if snap.Epoch() != 1 {
		t.Fatalf("winner snapshot epoch = %d, want 1", snap.Epoch())
	}
	path, ok := snap.Query(start, goal, 8)
	if !ok {
		t.Fatal("winner should solve around the cube")
	}
	assertPathValidIn(t, snap.space, path)

	// Post-race mutation: a full slab severs the space; the published
	// snapshot must stop serving the old path.
	slab := NewBoxObstacle(V(0.45, 0, 0), V(0.55, 1, 1))
	if _, err := pf.ApplyDelta(ctx, AddObstacle{Obstacle: slab}); err != nil {
		t.Fatal(err)
	}
	snap2 := pf.Snapshot()
	if snap2.Epoch() != 2 {
		t.Fatalf("post-slab epoch = %d, want 2", snap2.Epoch())
	}
	if p, ok := snap2.Query(start, goal, 8); ok {
		t.Fatalf("stale path served through the slab: %v", p)
	}
	// Every live racer saw the same mutation sequence.
	for i, r := range pf.racers {
		if r.eng == nil {
			continue
		}
		if got := r.eng.Snapshot().Epoch(); got != 2 {
			t.Fatalf("racer %d epoch = %d, want 2", i, got)
		}
	}
}

// TestPortfolioApplyDeltaSkipsDroppedRacers: a racer whose Luby budget
// ran out has no contestant engine until the next wave rebuilds it from
// the template, so a mutation between the two repairs nothing — the
// dropped engines are not contestants and their repair work is not the
// race's. The portfolio still publishes the mutated world, and the
// rebuilt racers plan it.
func TestPortfolioApplyDeltaSkipsDroppedRacers(t *testing.T) {
	ctx := context.Background()
	space := NewPointSpace(EnvironmentByName("med-cube"))
	// The goal is inside the central block: no racer can solve, so each
	// one-round budget runs out and every racer is dropped after a wave.
	start, goal := V(0.05, 0.05, 0.05), V(0.5, 0.5, 0.5)
	pf, err := NewPortfolio(space, start, goal, Options{
		Procs: 2, Regions: 8, SamplesPerRegion: 4, Seed: 5,
	}, PortfolioOptions{Racers: 2, MaxWaves: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	if got := pf.Report().Restarts; got != 2 {
		t.Fatalf("restarts after one wave = %d, want 2 (both racers dropped)", got)
	}
	before := pf.Snapshot()
	box := NewBoxObstacle(V(0, 0, 0), V(0.2, 0.2, 0.2))
	st, err := pf.ApplyDelta(ctx, AddObstacle{Obstacle: box})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas != 0 || st.CheckedNodes != 0 || st.Makespan != 0 {
		t.Fatalf("repaired dropped racers: %+v", st)
	}
	if pf.space.Env.Epoch != 1 {
		t.Fatalf("template epoch = %d, want 1", pf.space.Env.Epoch)
	}
	// A mutation that repairs no racer is still the published world's.
	if snap := pf.Snapshot(); snap.Epoch() != 1 || snap.Generation() <= before.Generation() {
		t.Fatalf("published epoch/generation = %d/%d, want 1 and > %d",
			snap.Epoch(), snap.Generation(), before.Generation())
	}
	if err := pf.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	for i, r := range pf.racers {
		if got := r.eng.Snapshot().Epoch(); got != 1 {
			t.Fatalf("rebuilt racer %d epoch = %d, want 1", i, got)
		}
	}
}

package parmp

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/prm"
)

// A repair that removes nothing republishes: the new snapshot carries
// the previous roadmap itself (not an equal copy) and the previous
// index, while generation, epoch and the repair statistics advance. Two
// ways to remove nothing: an obstacle added where no node or edge is
// (inside med-cube's cube — the repair runs, screens, and finds nothing
// dead), and a removal-only delta (nothing to re-check at all).
func TestApplyDeltaRemovingNothingKeepsRoadmap(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	first := eng.Snapshot()
	content := roadmapBytes(t, first.PRM().Roadmap)

	inside := AddObstacle{Obstacle: NewBoxObstacle(V(0.4, 0.4, 0.4), V(0.6, 0.6, 0.6))}
	for i, tc := range []struct {
		name string
		mut  Mutation
		want RepairStats // this call's share, as measured before republishing existed
	}{
		{"miss-everything", inside, RepairStats{Deltas: 1, Makespan: 150}},
		{"removal-only", RemoveObstacle{Index: 0}, RepairStats{Deltas: 1}},
	} {
		before := eng.Snapshot()
		st, err := eng.ApplyDelta(ctx, tc.mut)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, st, tc.want)
		}
		snap := eng.Snapshot()
		if snap.PRM().Roadmap != before.PRM().Roadmap {
			t.Errorf("%s: roadmap rebuilt for a repair that removed nothing", tc.name)
		}
		if snap.ix.(*prm.Index).Roadmap() != snap.PRM().Roadmap {
			t.Errorf("%s: snapshot indexes a roadmap that is not its own", tc.name)
		}
		if snap.PRM() == before.PRM() {
			t.Errorf("%s: result not republished", tc.name)
		}
		if snap.Generation() != before.Generation()+1 || snap.Epoch() != before.Epoch()+1 {
			t.Errorf("%s: generation/epoch %d/%d after %d/%d", tc.name,
				snap.Generation(), snap.Epoch(), before.Generation(), before.Epoch())
		}
		if got := snap.PRM().Repairs.Deltas; got != i+1 {
			t.Errorf("%s: cumulative Repairs.Deltas = %d, want %d", tc.name, got, i+1)
		}
		if snap.PRM().Phases.Repair != before.PRM().Phases.Repair+st.Makespan {
			t.Errorf("%s: repair phase time did not advance by the repair's makespan", tc.name)
		}
	}

	// The shared roadmap stays frozen while the engine grows past it.
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().PRM().Roadmap == first.PRM().Roadmap {
		t.Fatal("growth republished the old roadmap")
	}
	if !bytes.Equal(content, roadmapBytes(t, first.PRM().Roadmap)) {
		t.Fatal("growth wrote into a published roadmap")
	}
}

// Published storage is never written again: a held snapshot keeps its
// exact bytes and keeps answering valid paths in its own world while
// the engine grows and repairs underneath (each commit derives new rows
// from the committed ones into fresh arrays). Run under -race.
func TestHeldSnapshotFrozenUnderGrowAndRepair(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("free")), testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(ctx, 2); err != nil {
		t.Fatal(err)
	}
	held := eng.Snapshot()
	before := roadmapBytes(t, held.PRM().Roadmap)

	starts := []Config{V(0.05, 0.05, 0.05), V(0.05, 0.95, 0.05), V(0.95, 0.05, 0.95), V(0.5, 0.5, 0.05)}
	goals := []Config{V(0.95, 0.95, 0.95), V(0.95, 0.05, 0.95), V(0.05, 0.95, 0.95), V(0.5, 0.5, 0.95)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				j := i % len(starts)
				path, ok := held.Query(starts[j], goals[j], 8)
				if !ok {
					t.Error("held snapshot lost an answer it had in free space")
					return
				}
				if !path[0].Equal(starts[j], 0) || !path[len(path)-1].Equal(goals[j], 0) || !cspace.PathValid(held.space, path, nil) {
					t.Error("held snapshot returned an invalid path for its epoch")
					return
				}
			}
		}(r)
	}
	for i := 0; i < 6; i++ {
		if err := eng.Grow(ctx); err != nil {
			t.Fatal(err)
		}
		lo := 0.1 + 0.13*float64(i)
		st, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: NewBoxObstacle(V(lo, 0.2, 0.2), V(lo+0.1, 0.8, 0.8))})
		if err != nil {
			t.Fatal(err)
		}
		if st.RemovedNodes == 0 {
			t.Fatalf("delta %d killed nothing: %+v", i, st)
		}
	}
	close(done)
	wg.Wait()
	if held.Epoch() != 0 || eng.Snapshot().Epoch() != 6 {
		t.Fatalf("epochs: held %d, live %d", held.Epoch(), eng.Snapshot().Epoch())
	}
	if !bytes.Equal(before, roadmapBytes(t, held.PRM().Roadmap)) {
		t.Fatal("a published roadmap changed while the engine grew and repaired")
	}
}

// A published result keeps the ownership it was committed under. Under
// stealing and repartitioning the engine's own ownership moves every
// round, but a held snapshot's RegionGraph.Owner and NodeLoads stay
// those of its commit, read concurrently with later growth and repair
// (run under -race), and its NodeLoads stay its roadmap's node counts
// per owner.
func TestHeldSnapshotKeepsItsOwnership(t *testing.T) {
	ctx := context.Background()
	opts := testEngineOpts()
	opts.Policy, opts.Seed = Hybrid(8), 3
	eng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	held := eng.Snapshot().PRM()
	owner, loads := slices.Clone(held.RegionGraph.Owner), slices.Clone(held.NodeLoads)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if !slices.Equal(held.RegionGraph.Owner, owner) {
				t.Error("a held snapshot's ownership moved while the engine grew")
				return
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 3; i++ {
		if err := eng.Grow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.ApplyDelta(ctx, AddObstacle{Obstacle: NewBoxObstacle(V(0.1, 0.1, 0.1), V(0.3, 0.3, 0.3))}); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if slices.Equal(eng.Snapshot().PRM().RegionGraph.Owner, owner) {
		t.Fatal("the live ownership never moved: the fixture tests nothing")
	}
	if !slices.Equal(held.RegionGraph.Owner, owner) || !slices.Equal(held.NodeLoads, loads) {
		t.Fatal("a held snapshot's ownership or node loads changed after later rounds and a repair")
	}
	perProc := make([]float64, opts.Procs)
	for i := 0; i < held.Roadmap.NumNodes(); i++ {
		perProc[owner[held.Roadmap.G.Vertex(graph.ID(i)).Region]]++
	}
	if !slices.Equal(perProc, loads) {
		t.Fatalf("NodeLoads %v do not match the roadmap under its own ownership (%v)", loads, perProc)
	}
}

package core

import (
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/steal"
)

// pinnedRoadmap is what TestRoadmapPinned holds fixed for one engine
// history: the published roadmap's size and connectivity, a hash of its
// edge set with the stored weights, and the virtual accounting.
type pinnedRoadmap struct {
	nodes, edges, components int
	edgeHash                 uint64
	totalTime                float64
	repairs                  RepairStats
}

// pinRoadmap hashes the SORTED (min id, max id, weight bits) edge list, so
// it pins which edges the roadmap holds and what they weigh, not the
// order the adjacency rows list them in.
func pinRoadmap(res *PRMResult) pinnedRoadmap {
	g := res.Roadmap.G
	var list [][3]uint64
	g.ForEachEdge(func(a, b graph.ID, w float64) {
		list = append(list, [3]uint64{uint64(min(a, b)), uint64(max(a, b)), math.Float64bits(w)})
	})
	slices.SortFunc(list, func(x, y [3]uint64) int { return slices.Compare(x[:], y[:]) })
	h := fnv.New64a()
	var buf [8]byte
	for _, ed := range list {
		for _, u := range ed {
			for k := range buf {
				buf[k] = byte(u >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	_, comps := g.ConnectedComponents()
	return pinnedRoadmap{
		nodes: g.NumVertices(), edges: g.NumEdges(), components: comps,
		edgeHash: h.Sum64(), totalTime: res.TotalTime, repairs: res.Repairs,
	}
}

// scriptedStep commits one step of a move script on a clone of world and
// returns the clone with the merged delta.
func scriptedStep(t *testing.T, world *env.Environment, moves []env.Move) (*env.Environment, env.Delta) {
	t.Helper()
	world = world.Clone()
	d, err := world.ApplyMoves(moves)
	if err != nil {
		t.Fatal(err)
	}
	return world, d
}

// wantRoadmap was read at the parent of the one-set-per-pair change (one
// boundary set per pair per round, two hand-written connector replays)
// and must not move.
var wantRoadmap = map[string]pinnedRoadmap{
	"warehouse-forklift": {nodes: 2242, edges: 6417, components: 3, edgeHash: 0x16e14b6ccb1826a0, totalTime: 42047.76000000001,
		repairs: RepairStats{Deltas: 2, CheckedNodes: 771, CheckedEdges: 2215, RemovedNodes: 23, RemovedEdges: 129, Makespan: 9514.5,
			Work: cspace.Counters{CDCalls: 6391, CDObstacle: 35980, LPSteps: 5620, LPCalls: 2215}}},
	"med-cube": {nodes: 1820, edges: 5350, components: 2, edgeHash: 0x474b49590f557e8e, totalTime: 42881.18,
		repairs: RepairStats{Deltas: 2, CheckedNodes: 87, CheckedEdges: 43, RemovedNodes: 87, RemovedEdges: 390, Makespan: 900,
			Work: cspace.Counters{CDCalls: 348, CDObstacle: 594, LPSteps: 261, LPCalls: 43}}},
}

// TestRoadmapPinned pins two engine histories — 4 growth rounds, 2
// invalidating deltas, 1 more round — end to end: the roadmap the engine
// publishes (node, edge and component counts, the edge set with its
// stored weights) and what the simulator charged for it (TotalTime, the
// full RepairStats). How the committed structure is stored between
// rounds may change; none of this may.
func TestRoadmapPinned(t *testing.T) {
	run := func(name string, world *env.Environment, opts Options, step func(k int, w *env.Environment) (*env.Environment, env.Delta)) {
		t.Helper()
		s := cspace.NewPointSpace(world)
		eng, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		growPRM(t, eng, 4)
		for k := 0; k < 2; k++ {
			var d env.Delta
			world, d = step(k, world)
			if !d.Invalidating() {
				t.Fatalf("%s: delta %d invalidates nothing", name, k)
			}
			s = s.WithEnv(world)
			if _, err := eng.ApplyDelta(s, d, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := pinRoadmap(growPRM(t, eng, 1))
		assertRoadmapValid(t, s, eng.Result().Roadmap)
		if want := wantRoadmap[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: roadmap moved\n got  %#v\n want %#v", name, got, want)
		}
	}

	// Work stealing with either-owner pair placement on the 2-D warehouse,
	// mutated by its own patrol script.
	wh, script := env.WarehouseForkliftMoves()
	opts := quickOpts(8, 64)
	opts.SamplesPerRegion = 8
	opts.Strategy, opts.Policy = WorkStealing, steal.Hybrid{K: 4}
	run("warehouse-forklift", wh, opts, func(k int, w *env.Environment) (*env.Environment, env.Delta) {
		return scriptedStep(t, w, script(k))
	})

	// Repartitioning on the 3-D cube, mutated by two added slabs that cut
	// region interiors and region boundaries alike.
	opts = quickOpts(4, 64)
	opts.SamplesPerRegion = 8
	opts.Strategy = Repartition
	slabs := []geom.AABB{geom.Box3(0.05, 0.1, 0.1, 0.3, 0.3, 0.9), geom.Box3(0.6, 0.45, 0.2, 0.95, 0.55, 0.8)}
	run("med-cube", env.MedCube(), opts, func(k int, w *env.Environment) (*env.Environment, env.Delta) {
		return mutateAddBox(t, w, slabs[k])
	})
}

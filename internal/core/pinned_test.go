package core

import (
	"fmt"
	"hash"
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

// wantRigid was read before the axis-range segment cull and the rigid
// body's index-written columns, and must not move: per seed, the
// roadmap pin and the Counters summed over every region's sample and
// construct work.
var wantRigid = map[uint64]struct {
	roadmap pinnedRoadmap
	work    cspace.Counters
}{
	1: {pinnedRoadmap{nodes: 562, edges: 1457, components: 1, edgeHash: 0x11327193638d1c88, totalTime: 70020.4},
		cspace.Counters{CDCalls: 25666, CDObstacle: 632364, LPSteps: 24642, LPCalls: 1187, KNNQueries: 562, KNNEvals: 4418, Samples: 1024}},
	2: {pinnedRoadmap{nodes: 538, edges: 1373, components: 1, edgeHash: 0x3b7cff8b7224df96, totalTime: 68958.70000000001},
		cspace.Counters{CDCalls: 24552, CDObstacle: 601976, LPSteps: 23528, LPCalls: 1110, KNNQueries: 536, KNNEvals: 4156, Samples: 1024}},
}

// TestRigidBodyEnginePinned pins the 6-DOF box body the grow-prm
// benchmark plans (half extents 0.03 × 0.02 × 0.01 in med-cube) through
// two repartitioned PRM rounds, for two seeds: node, edge and component
// counts, the edge set with its stored weights, TotalTime and the
// summed Counters. TestRoadmapPinned plans point robots only; this is
// the engine-level pin of the rigid body's path kernel and the box
// segment kernel under it.
func TestRigidBodyEnginePinned(t *testing.T) {
	s := cspace.NewRigidBodySpace(env.MedCube(), cspace.NewRigidBox(0.03, 0.02, 0.01))
	for _, seed := range []uint64{1, 2} {
		opts := quickOpts(8, 64)
		opts.SamplesPerRegion = 8
		opts.Strategy = Repartition
		opts.Seed = seed
		eng, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := growPRM(t, eng, 2)
		assertRoadmapValid(t, s, res.Roadmap)
		var work cspace.Counters
		for _, d := range eng.data {
			work.Add(d.sampleWork)
			work.Add(d.connectWork)
		}
		got, want := pinRoadmap(res), wantRigid[seed]
		if !reflect.DeepEqual(got, want.roadmap) || work != want.work {
			t.Errorf("seed %d: rigid-body roadmap moved\n got  %#v\n      %#v\n want %#v\n      %#v", seed, got, work, want.roadmap, want.work)
		}
	}
}

// pinnedTree is what TestTreePinned holds fixed for one tree engine
// history: each branch's node count, a hash of every branch's node
// coordinate bits and parent vector, the bridges, the virtual accounting,
// and a hash of the paths the published forest gives to fixed goals.
type pinnedTree struct {
	branchNodes []int
	treeHash    uint64
	bridges     [][4]int
	totalTime   uint64 // TotalTime bits
	repairs     RepairStats
	pathHash    uint64
}

// treePinGoals are the goals TestTreePinned extracts paths to: near the
// root, behind the first wall, the far corner, and inside the middle
// wall of walls.
var treePinGoals = []cspace.Config{
	geom.V(0.15, 0.2, 0.5), geom.V(0.4, 0.6, 0.3), geom.V(0.9, 0.9, 0.5), geom.V(0.5, 0.1, 0.5),
}

// pinTree hashes res and the paths BuildTreeIndex(res).ExtractPath gives
// to treePinGoals (each goal's ok flag, then its waypoints' bits).
func pinTree(s *cspace.Space, res *RRTResult) pinnedTree {
	var buf [8]byte
	put := func(h hash.Hash64, u uint64) {
		for k := range buf {
			buf[k] = byte(u >> (8 * k))
		}
		h.Write(buf[:])
	}
	p := pinnedTree{bridges: res.Bridges, totalTime: math.Float64bits(res.TotalTime), repairs: res.Repairs}
	h := fnv.New64a()
	for _, b := range res.Branches {
		if b == nil {
			p.branchNodes = append(p.branchNodes, 0)
			continue
		}
		p.branchNodes = append(p.branchNodes, b.Len())
		for _, n := range b.Nodes {
			put(h, uint64(int64(n.Parent)))
			for _, x := range n.Q {
				put(h, math.Float64bits(x))
			}
		}
	}
	p.treeHash = h.Sum64()
	ix := BuildTreeIndex(res)
	h = fnv.New64a()
	for _, g := range treePinGoals {
		path, ok := ix.ExtractPath(s, g, nil)
		if ok {
			put(h, 1)
		} else {
			put(h, 0)
		}
		for _, q := range path {
			for _, x := range q {
				put(h, math.Float64bits(x))
			}
		}
	}
	p.pathHash = h.Sum64()
	return p
}

// wantTree was read at the parent of the cosine-domain cone test and the
// batched goal attach (AngleBetween in every cone test, sequential
// LocalPlan per attach candidate) and must not move.
var wantTree = map[string]pinnedTree{
	"rrt/walls": {[]int{14, 48, 48, 9, 48, 48, 32, 48, 7, 48, 48, 48, 18, 11, 7, 17}, 0x23d18ae7c6058434,
		[][4]int{{0, 3, 14, 2}, {0, 3, 9, 0}, {0, 2, 8, 1}, {0, 2, 3, 1}, {1, 11, 10, 10}, {1, 7, 6, 3}, {1, 1, 14, 0}, {3, 3, 12, 6}, {3, 3, 13, 3}, {3, 4, 15, 2}, {4, 9, 11, 7}, {1, 43, 2, 39}, {2, 19, 5, 25}, {2, 29, 7, 35}, {4, 33, 9, 36}},
		0x40e6792b851eb852,
		RepairStats{Deltas: 1, CheckedNodes: 12, CheckedEdges: 0, RemovedNodes: 31, RemovedEdges: 4, Grafted: 17, Makespan: 2817.86,
			Work: cspace.Counters{CDCalls: 639, CDObstacle: 8230, LPSteps: 627, LPCalls: 97, KNNQueries: 36, KNNEvals: 280}},
		0x81a5af5fc4eeb413},
	"rrtstar/walls": {[]int{14, 48, 48, 9, 48, 48, 32, 48, 7, 48, 48, 48, 18, 11, 7, 17}, 0x31d6ce50aab717d3,
		[][4]int{{0, 3, 14, 2}, {0, 3, 9, 0}, {0, 2, 8, 1}, {0, 2, 3, 1}, {1, 11, 10, 10}, {1, 7, 6, 3}, {1, 1, 14, 0}, {3, 3, 12, 6}, {3, 3, 13, 3}, {3, 4, 15, 2}, {4, 9, 11, 7}, {1, 43, 2, 39}, {2, 19, 5, 25}, {2, 29, 7, 35}, {4, 32, 9, 36}},
		0x40f77295c28f5c29,
		RepairStats{Deltas: 1, CheckedNodes: 12, CheckedEdges: 4, RemovedNodes: 31, RemovedEdges: 4, Grafted: 75, Makespan: 4716.2,
			Work: cspace.Counters{CDCalls: 805, CDObstacle: 10350, LPSteps: 793, LPCalls: 157, KNNQueries: 94, KNNEvals: 1109}},
		0xf7f9a24efbb245},
	"rrtconnect/walls": {[]int{5, 8, 21, 5, 15, 21, 6, 41, 5, 6, 8, 7, 17, 7, 5, 6}, 0x2750ef9e2bbd94a1,
		[][4]int{{0, 2, 14, 2}, {0, 2, 9, 3}, {0, 2, 8, 3}, {0, 2, 3, 1}, {1, 2, 10, 4}, {1, 2, 2, 18}, {1, 2, 6, 4}, {1, 5, 14, 0}, {2, 3, 5, 4}, {3, 2, 12, 5}, {3, 2, 13, 2}, {3, 2, 15, 3}, {4, 7, 11, 2}, {2, 10, 7, 28}, {4, 2, 7, 9}},
		0x40d84cbae147ae14,
		RepairStats{Deltas: 1, CheckedNodes: 3, CheckedEdges: 0, RemovedNodes: 8, RemovedEdges: 2, Grafted: 0, Makespan: 1292.1,
			Work: cspace.Counters{CDCalls: 131, CDObstacle: 1655, LPSteps: 128, LPCalls: 20, KNNQueries: 5, KNNEvals: 30}},
		0x5767d2842c4e7fbe},
	"rrt/mixed-30": {[]int{48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 1, 2, 48, 4}, 0x2699dc6743f1c204,
		[][4]int{{0, 4, 3, 0}, {1, 2, 10, 1}, {1, 2, 2, 2}, {1, 2, 6, 0}, {1, 7, 14, 5}, {2, 10, 5, 11}, {2, 8, 7, 4}, {3, 1, 12, 0}, {3, 1, 14, 1}, {3, 1, 13, 0}, {3, 1, 8, 1}, {3, 1, 15, 0}, {4, 11, 7, 7}, {4, 5, 9, 3}, {4, 3, 11, 1}},
		0x412dee72d70a3d71,
		RepairStats{Deltas: 1, CheckedNodes: 2, CheckedEdges: 0, RemovedNodes: 34, RemovedEdges: 0, Grafted: 0, Makespan: 40529.78,
			Work: cspace.Counters{CDCalls: 226, CDObstacle: 79517, LPSteps: 224, LPCalls: 64, KNNQueries: 32, KNNEvals: 64}},
		0x33b65b5460ec8579},
	"rrtstar/mixed-30": {[]int{48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 1, 2, 48, 4}, 0x8f77dab07ed00c66,
		[][4]int{{0, 7, 8, 2}, {0, 5, 3, 0}, {1, 2, 10, 1}, {1, 2, 2, 2}, {1, 2, 6, 0}, {1, 11, 14, 2}, {2, 10, 5, 11}, {2, 8, 7, 4}, {3, 1, 12, 0}, {3, 1, 14, 1}, {3, 1, 13, 0}, {3, 1, 15, 0}, {4, 11, 7, 7}, {4, 3, 11, 1}, {0, 30, 9, 39}},
		0x4137b67123d70a3d,
		RepairStats{Deltas: 1, CheckedNodes: 2, CheckedEdges: 3, RemovedNodes: 34, RemovedEdges: 1, Grafted: 32, Makespan: 45781.78,
			Work: cspace.Counters{CDCalls: 338, CDObstacle: 118561, LPSteps: 336, LPCalls: 99, KNNQueries: 64, KNNEvals: 514}},
		0xe6b813b61dd7f58c},
	"rrtconnect/mixed-30": {[]int{20, 27, 16, 2, 23, 13, 15, 24, 19, 39, 8, 49, 1, 2, 15, 2}, 0xb3ca818dc927e2cd,
		[][4]int{{0, 9, 9, 0}, {0, 7, 8, 3}, {0, 7, 3, 0}, {1, 2, 10, 1}, {1, 2, 2, 2}, {1, 2, 6, 0}, {1, 4, 14, 1}, {2, 9, 5, 4}, {2, 9, 7, 5}, {3, 1, 12, 0}, {3, 1, 14, 1}, {3, 1, 13, 0}, {3, 1, 15, 0}, {4, 1, 11, 0}, {4, 7, 9, 3}},
		0x411f181f70a3d70a,
		RepairStats{Deltas: 1, CheckedNodes: 2, CheckedEdges: 2, RemovedNodes: 8, RemovedEdges: 1, Grafted: 0, Makespan: 9467.86,
			Work: cspace.Counters{CDCalls: 58, CDObstacle: 18323, LPSteps: 56, LPCalls: 20, KNNQueries: 6, KNNEvals: 18}},
		0x691d97d08ac1ade8},
}

// TestTreePinned pins six tree engine histories — RRT, RRT* and
// RRT-Connect on walls and mixed-30; 3 growth rounds, one invalidating
// delta, 1 more round — end to end: every branch (node counts, node
// coordinates and parents), the bridges, what the simulator charged
// (TotalTime bits, the full RepairStats), and the paths the published
// forest answers for four fixed goals. The RRT engine on walls runs
// under Repartition, so its round-0 k-ray weights — cone draws of their
// own — decide ownership and with it TotalTime.
func TestTreePinned(t *testing.T) {
	scenes := []struct {
		name       string
		world      *env.Environment
		root, goal cspace.Config
		box        geom.AABB
	}{
		{"walls", env.ByName("walls"), geom.V(0.1, 0.1, 0.5), geom.V(0.9, 0.9, 0.5), geom.Box3(0.1, 0.25, 0.2, 0.2, 0.35, 0.8)},
		{"mixed-30", env.Mixed30(), geom.V(0.5, 0.5, 0.5), geom.V(0.9, 0.9, 0.9), geom.Box3(0.55, 0.4, 0.4, 0.65, 0.6, 0.6)},
	}
	for _, sc := range scenes {
		for _, planner := range []string{"rrt", "rrtstar", "rrtconnect"} {
			name := planner + "/" + sc.name
			opts := rrtOpts(4, 16)
			opts.Radius = 0.9
			opts.Star = planner == "rrtstar"
			if name == "rrt/walls" {
				opts.Strategy = Repartition
			}
			s := cspace.NewPointSpace(sc.world)
			var eng *RRTEngine
			var err error
			if planner == "rrtconnect" {
				eng, err = NewRRTConnectEngine(s, sc.root, sc.goal, opts)
			} else {
				eng, err = NewRRTEngine(s, sc.root, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			growRRT(t, eng, 3)
			world, d := mutateAddBox(t, sc.world, sc.box)
			s = s.WithEnv(world)
			if _, err := eng.ApplyDelta(s, d, nil); err != nil {
				t.Fatal(err)
			}
			res := growRRT(t, eng, 1)
			assertForestValid(t, s, res)
			if got, want := pinTree(s, res), wantTree[name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: forest moved\n got  %#v\n want %#v", name, got, want)
			}
		}
	}
}

// closedLoopLine prints what TestClosedLoopCostPinned holds fixed after
// one committed round, floats at %.17g: the virtual makespan, the
// estimate-outcome correlation, migrated and diffused regions, the two
// load CVs, and RegionCosts' Sum and Max summed over the regions.
func closedLoopLine(name string, round int, st RunStats, corr float64) string {
	var sum, most float64
	for _, rc := range st.RegionCosts {
		sum += rc.Sum
		most += rc.Max
	}
	return fmt.Sprintf("%s r%d total=%.17g corr=%.17g migrated=%d diffused=%d cvBefore=%.17g cvAfter=%.17g costSum=%.17g costMax=%.17g",
		name, round, st.TotalTime, corr, st.MigratedRegions, st.DiffusedRegions, st.CVBefore, st.CVAfter, sum, most)
}

// wantClosedLoop was read before the weight rule became cost per unit ×
// units in one place (static and observed weights formed apart, the
// EWMA in a package of its own) and must not move.
var wantClosedLoop = []string{
	"rrt/none r0 total=148127.66000000003 corr=-0.51515458576726414 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.12372525517550945 costSum=208203.51999999996 costMax=208203.51999999996",
	"rrt/none r1 total=286121.85999999999 corr=0.51904100326688074 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.50297342745280327 costSum=476270.56 costMax=289850.76000000001",
	"rrt/none r2 total=586704.88000000012 corr=0.88440948816365195 migrated=14 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.5419130945484637 costSum=936931.21999999997 costMax=484865.32000000001",
	"rrt/none r3 total=785914.8600000001 corr=0.45453279794467366 migrated=14 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.49915226216993447 costSum=1318388.8200000001 costMax=545477.58000000007",
	"rrt/none r4 total=990557.90000000002 corr=0.75847581535810638 migrated=14 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.48926302206364702 costSum=1696460.1999999997 costMax=596694.26000000001",
	"rrt/diffusive r0 total=148127.66000000003 corr=-0.51515458576726414 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.12372525517550945 costSum=208203.51999999996 costMax=208203.51999999996",
	"rrt/diffusive r1 total=286121.85999999999 corr=0.51904100326688074 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.50297342745280327 costSum=476270.56 costMax=289850.76000000001",
	"rrt/diffusive r2 total=583921.16000000003 corr=0.88440948816365195 migrated=14 diffused=1 cvBefore=0.37064124866013393 cvAfter=0.53089527561229 costSum=936931.21999999997 costMax=484865.32000000001",
	"rrt/diffusive r3 total=818250.80000000005 corr=0.45453279794467366 migrated=14 diffused=2 cvBefore=0.37064124866013393 cvAfter=0.5020421125613912 costSum=1318388.8200000001 costMax=545477.58000000007",
	"rrt/diffusive r4 total=1041896.34 corr=0.75847581535810638 migrated=14 diffused=3 cvBefore=0.37064124866013393 cvAfter=0.32724885364135625 costSum=1696460.1999999997 costMax=596694.26000000001",
	"rrtconnect/none r0 total=116695.28000000001 corr=-0.54696117674970979 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.2802670375595242 costSum=167996.22000000003 costMax=167996.22000000003",
	"rrtconnect/none r1 total=241105.78000000003 corr=0.36481746545369981 migrated=12 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.34019982837755647 costSum=310078.50000000006 costMax=190529.22000000003",
	"rrtconnect/none r2 total=368332.23999999999 corr=0.79624818394605901 migrated=15 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.52923202214267251 costSum=415798.5 costMax=192509.28",
	"rrtconnect/none r3 total=476051.83999999997 corr=0.79622572995405172 migrated=15 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.57502804126173079 costSum=488308.52000000002 costMax=192509.28",
	"rrtconnect/none r4 total=586881.33999999997 corr=0.81462137056485151 migrated=15 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.56874165267168253 costSum=541637.68000000005 costMax=192509.28",
	"rrtconnect/diffusive r0 total=116695.28000000001 corr=-0.54696117674970979 migrated=6 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.2802670375595242 costSum=167996.22000000003 costMax=167996.22000000003",
	"rrtconnect/diffusive r1 total=241105.78000000003 corr=0.36481746545369981 migrated=12 diffused=0 cvBefore=0.37064124866013393 cvAfter=0.34019982837755647 costSum=310078.50000000006 costMax=190529.22000000003",
	"rrtconnect/diffusive r2 total=368302.23999999999 corr=0.79624818394605901 migrated=15 diffused=1 cvBefore=0.37064124866013393 cvAfter=0.52923202214267251 costSum=415798.5 costMax=192509.28",
	"rrtconnect/diffusive r3 total=476021.83999999997 corr=0.79622572995405172 migrated=15 diffused=1 cvBefore=0.37064124866013393 cvAfter=0.57502804126173079 costSum=488308.52000000002 costMax=192509.28",
	"rrtconnect/diffusive r4 total=591074.14000000001 corr=0.81462137056485151 migrated=15 diffused=3 cvBefore=0.37064124866013393 cvAfter=0.61409680673409028 costSum=541637.68000000005 costMax=192509.28",
	"prm/diffusive r0 total=139618.22 corr=0 migrated=124 diffused=0 cvBefore=0.96756451569118085 cvAfter=0.053485109925420667 costSum=505959.24000000005 costMax=505959.24000000005",
	"prm/diffusive r1 total=325545.23999999999 corr=0 migrated=186 diffused=0 cvBefore=0.96756451569118085 cvAfter=0.3216087699685633 costSum=1095343.6599999999 costMax=643568.04000000004",
	"prm/diffusive r2 total=549543.41999999993 corr=0 migrated=186 diffused=2 cvBefore=0.96756451569118085 cvAfter=0.34017772522860462 costSum=1650026.54 costMax=687516.84000000008",
	"prm/diffusive r3 total=843379.75999999989 corr=0 migrated=199 diffused=3 cvBefore=0.96756451569118085 cvAfter=0.41403349036241782 costSum=2196766.1800000006 costMax=727015.40000000014",
}

// TestClosedLoopCostPinned pins the observed-cost loop end to end: RRT
// and RRT-Connect on mixed-30 under Repartition + CostObserved, with and
// without the diffusive rebalance, stealing with Hybrid{K: 4}, for 5
// rounds with a tree repair before round 2 (the repair's costs feed the
// model too); and a PRM engine on mixed under Repartition +
// CostObserved + RebalanceDiffusive for 4 rounds. Every round's line
// (closedLoopLine) must match bit for bit.
func TestClosedLoopCostPinned(t *testing.T) {
	var got []string
	root, goal := geom.V(0.5, 0.5, 0.5), geom.V(0.9, 0.9, 0.9)
	for _, planner := range []string{"rrt", "rrtconnect"} {
		for _, rb := range []RebalanceKind{RebalanceNone, RebalanceDiffusive} {
			name := planner + "/" + rb.String()
			opts := rrtOpts(4, 16)
			opts.Radius = 0.9
			opts.Strategy, opts.CostModel, opts.Rebalance = Repartition, CostObserved, rb
			opts.Policy = steal.Hybrid{K: 4}
			s := cspace.NewPointSpace(env.Mixed30())
			var eng *RRTEngine
			var err error
			if planner == "rrtconnect" {
				eng, err = NewRRTConnectEngine(s, root, goal, opts)
			} else {
				eng, err = NewRRTEngine(s, root, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 5; round++ {
				if round == 2 {
					world, d := mutateAddBox(t, env.Mixed30(), geom.Box3(0.55, 0.4, 0.4, 0.65, 0.6, 0.6))
					s = s.WithEnv(world)
					if _, err := eng.ApplyDelta(s, d, nil); err != nil {
						t.Fatal(err)
					}
				}
				res := growRRT(t, eng, 1)
				got = append(got, closedLoopLine(name, round, res.RunStats, res.WeightActualCorr))
			}
		}
	}
	opts := quickOpts(8, 128)
	opts.SamplesPerRegion = 5
	opts.Strategy, opts.CostModel, opts.Rebalance = Repartition, CostObserved, RebalanceDiffusive
	eng, err := NewPRMEngine(cspace.NewPointSpace(env.Mixed()), opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		got = append(got, closedLoopLine("prm/diffusive", round, growPRM(t, eng, 1).RunStats, 0))
	}
	if !slices.Equal(got, wantClosedLoop) {
		for _, l := range got {
			t.Logf("%q,", l)
		}
		t.Errorf("closed loop moved: %d lines, want %d", len(got), len(wantClosedLoop))
		for i := range min(len(got), len(wantClosedLoop)) {
			if got[i] != wantClosedLoop[i] {
				t.Errorf("line %d\n got  %s\n want %s", i, got[i], wantClosedLoop[i])
			}
		}
	}
}

package parmp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func rrtResultsEqual(t *testing.T, got, want *RRTResult) {
	t.Helper()
	if got.TotalNodes() != want.TotalNodes() {
		t.Fatalf("nodes %d != %d", got.TotalNodes(), want.TotalNodes())
	}
	if len(got.Bridges) != len(want.Bridges) || got.PrunedCycles != want.PrunedCycles {
		t.Fatalf("bridges/pruned %d/%d != %d/%d",
			len(got.Bridges), got.PrunedCycles, len(want.Bridges), want.PrunedCycles)
	}
	if got.TreesMet != want.TreesMet || got.GoalConnected != want.GoalConnected {
		t.Fatalf("met/goal %d/%v != %d/%v", got.TreesMet, got.GoalConnected, want.TreesMet, want.GoalConnected)
	}
	if got.TotalTime != want.TotalTime {
		t.Fatalf("virtual time %v != %v", got.TotalTime, want.TotalTime)
	}
	for i, b := range got.Branches {
		if b.Len() != want.Branches[i].Len() {
			t.Fatalf("branch %d: %d nodes vs %d", i, b.Len(), want.Branches[i].Len())
		}
		for j, n := range b.Nodes {
			w := want.Branches[i].Nodes[j]
			if !n.Q.Equal(w.Q, 0) || n.Parent != w.Parent {
				t.Fatalf("branch %d node %d differs", i, j)
			}
		}
	}
}

// One engine growth round must be bit-identical to the one-shot planner:
// PlanRRTConnect is specified as exactly round 0 of an RRT-Connect engine.
func TestEngineRRTConnectRoundZeroMatchesPlanRRTConnect(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root, goal := V(0.5, 0.5, 0.5), V(0.9, 0.9, 0.9)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 20, Radius: 0.9,
		Policy: RandK(4), Seed: 7}
	oneShot, err := PlanRRTConnect(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	rrtResultsEqual(t, eng.Snapshot().RRT(), oneShot.RRT())
}

// RRT-Connect engines must be deterministic across call batching, and a
// met region's pair must stop growing while unmet regions continue.
func TestEngineRRTConnectDeterministicAcrossCalls(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root, goal := V(0.5, 0.5, 0.5), V(0.9, 0.9, 0.9)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 15, Radius: 0.9, Seed: 3}

	a, err := NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.GrowN(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	b, err := NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ra, rb := a.Snapshot().RRT(), b.Snapshot().RRT()
	rrtResultsEqual(t, ra, rb)
	if a.Rounds() != 2 {
		t.Fatalf("rounds = %d; want 2", a.Rounds())
	}
	snap, err := PlanRRTConnect(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	one := snap.RRT()
	if ra.TotalNodes() < one.TotalNodes() {
		t.Fatalf("2 rounds (%d nodes) shrank below round 0 (%d nodes)", ra.TotalNodes(), one.TotalNodes())
	}
	if ra.TreesMet < one.TreesMet {
		t.Fatalf("met regions went backwards: %d -> %d", one.TreesMet, ra.TreesMet)
	}
}

// Invalid configurations must be rejected at construction: RRT-Connect
// needs symmetric local motions and a root-dimensioned goal.
func TestEngineRRTConnectRejectsSteeredAndBadGoal(t *testing.T) {
	if _, err := NewRRTConnectEngine(NewDubinsSpace(EnvironmentByName("maze-2d"), 0.1),
		V(0.1, 0.1, 0), V(0.9, 0.9, 0), Options{Procs: 2, Regions: 8}); err == nil {
		t.Fatal("steered (Dubins) space must be rejected")
	}
	space := NewPointSpace(EnvironmentByName("free"))
	if _, err := NewRRTConnectEngine(space, V(0.5, 0.5, 0.5), nil, Options{Procs: 2, Regions: 8}); err == nil {
		t.Fatal("nil goal must be rejected")
	}
	if _, err := NewRRTConnectEngine(space, V(0.5, 0.5, 0.5), V(0.5, 0.5), Options{Procs: 2, Regions: 8}); err == nil {
		t.Fatal("wrong-dimension goal must be rejected")
	}
}

// Snapshots must serve concurrent queries while the RRT-Connect engine
// grows (the -race sentinel for the RRT-Connect serving path).
func TestSnapshotQueryConcurrentWithGrowRRTConnect(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	start, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 40, Radius: 2.0, Seed: 5}
	eng, err := NewRRTConnectEngine(space, start, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := eng.Snapshot()
				path, ok := snap.Query(start, goal, 8)
				if ok && len(path) < 2 {
					t.Error("degenerate path from snapshot query")
					return
				}
				if snap.Rounds() > 0 && snap.NumNodes() == 0 {
					t.Error("committed snapshot has no nodes")
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := eng.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if _, ok := eng.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("final snapshot cannot solve the benchmark query")
	}
}

// A canceled context must abort RRT-Connect growth without tearing
// state, and resumed growth must match uninterrupted growth exactly.
func TestEngineRRTConnectCancellation(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	root, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 60, Radius: 2.0, Seed: 11}
	var cancelMid context.CancelFunc
	opts.Runtime = cancelAfterReplay(&cancelMid)
	eng, err := NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	committed := eng.Snapshot().RRT()
	baseline := runtime.NumGoroutine()

	// Pre-canceled context: must refuse immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Grow(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("Grow on canceled context: %v; want ErrStopped", err)
	}

	// Mid-round cancellation: the round's first phase replay cancels the
	// context, so the next checkpoint must abort the round.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cancelMid = cancel2
	err = eng.Grow(ctx2)
	cancelMid = nil
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("mid-round Grow: %v; want ErrStopped", err)
	}
	if eng.Rounds() != 1 {
		t.Fatalf("aborted round changed round count: %d", eng.Rounds())
	}
	rrtResultsEqual(t, eng.Snapshot().RRT(), committed)

	// No leaked goroutines once the dust settles.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine must keep working after cancellation.
	rounds := eng.Rounds()
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.Rounds() != rounds+1 {
		t.Fatalf("post-cancel Grow did not commit: rounds %d -> %d", rounds, eng.Rounds())
	}

	// Resumed growth stays deterministic: a fresh engine grown to the
	// same round count (without any cancellations) matches exactly.
	ref, err := NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.GrowN(context.Background(), eng.Rounds()); err != nil {
		t.Fatal(err)
	}
	rrtResultsEqual(t, eng.Snapshot().RRT(), ref.Snapshot().RRT())
}

// The initial snapshot publishes the engine's empty result, so the first
// Grow must not write into it: CVBefore is round-local and lands in the
// fresh result at commit. A reader races the first round (the race
// detector sees any write to the published result), for both tree
// constructors.
func TestEngineFirstGrowLeavesInitialResultUntouched(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root, goal := V(0.5, 0.5, 0.5), V(0.9, 0.9, 0.9)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 20, Strategy: Repartition, Seed: 7}
	for name, mk := range map[string]func() (*Engine, error){
		"rrt":        func() (*Engine, error) { return NewRRTEngine(space, root, opts) },
		"rrtconnect": func() (*Engine, error) { return NewRRTConnectEngine(space, root, goal, opts) },
	} {
		t.Run(name, func(t *testing.T) {
			eng, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			initial := eng.Snapshot()
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
					if s := eng.Snapshot(); s.Rounds() == 0 && s.RRT().CVBefore != 0 {
						t.Error("uncommitted round 0 visible through the initial snapshot")
						return
					}
				}
			}()
			err = eng.Grow(context.Background())
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if initial.RRT().CVBefore != 0 {
				t.Fatalf("first Grow wrote CVBefore = %v into the initial snapshot's result", initial.RRT().CVBefore)
			}
			if eng.Snapshot().RRT().CVBefore == 0 {
				t.Fatal("committed round 0 carries no CVBefore")
			}
		})
	}
}

// NewEngineByName is each planner's own constructor, plus the by-name
// surfaces' default reach for trees: a zero Radius is the bounds diagonal.
func TestNewEngineByName(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	opts := Options{Procs: 4, Regions: 32, SamplesPerRegion: 8, NodesPerRegion: 15, Seed: 3}
	explicit := opts
	explicit.Radius = math.Sqrt(3) // the unit cube's diagonal
	grown := func(eng *Engine, err error) *Snapshot {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng.Snapshot()
	}
	for _, planner := range PlannerNames() {
		byName := grown(NewEngineByName(planner, space, root, goal, opts))
		switch planner {
		case "prm":
			direct := grown(NewEngine(space, opts)).PRM().Roadmap
			if !bytes.Equal(roadmapBytes(t, byName.PRM().Roadmap), roadmapBytes(t, direct)) {
				t.Fatal("prm by name differs from NewEngine")
			}
		case "rrt":
			rrtResultsEqual(t, byName.RRT(), grown(NewRRTEngine(space, root, explicit)).RRT())
		case "rrtconnect":
			rrtResultsEqual(t, byName.RRT(), grown(NewRRTConnectEngine(space, root, goal, explicit)).RRT())
		}
	}
	if _, err := NewEngineByName("dijkstra", space, root, goal, opts); err == nil {
		t.Fatal("unknown planner accepted")
	}
}

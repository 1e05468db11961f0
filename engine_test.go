package parmp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/graph"
	"parmp/internal/sched"
	"parmp/internal/work"
)

func testEngineOpts() Options {
	return Options{
		Procs:            8,
		Regions:          64,
		SamplesPerRegion: 10,
		Strategy:         Repartition,
		Seed:             1,
	}
}

// roadmapBytes flattens m's nodes and edges, in order and bit-exactly
// (%x prints floats in hexadecimal), so roadmaps compare with bytes.Equal.
func roadmapBytes(t *testing.T, m *Roadmap) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < m.NumNodes(); i++ {
		n := m.G.Vertex(graph.ID(i))
		fmt.Fprintf(&buf, "%d %x\n", n.Region, []float64(n.Q))
	}
	m.G.ForEachEdge(func(a, b graph.ID, w float64) { fmt.Fprintf(&buf, "%d %d %x\n", a, b, w) })
	return buf.Bytes()
}

// One engine growth round must be bit-identical to the one-shot
// planner: PlanPRM is specified as exactly round 0 of a PRM engine.
func TestEngineRoundZeroMatchesPlanPRM(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	opts := testEngineOpts()
	snap, err := PlanPRM(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneShot := snap.PRM()
	eng, err := NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := eng.Snapshot().PRM()
	if got, want := roadmapBytes(t, res.Roadmap), roadmapBytes(t, oneShot.Roadmap); !bytes.Equal(got, want) {
		t.Fatalf("round-0 roadmap differs from PlanPRM (%d vs %d bytes)", len(got), len(want))
	}
	if res.TotalTime != oneShot.TotalTime {
		t.Fatalf("round-0 virtual time %v != one-shot %v", res.TotalTime, oneShot.TotalTime)
	}
}

// Same contract for RRT: PlanRRT is exactly round 0 of an RRT engine.
func TestEngineRRTRoundZeroMatchesPlanRRT(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root := V(0.5, 0.5, 0.5)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 20, Policy: RandK(4), Seed: 7}
	snap, err := PlanRRT(space, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneShot := snap.RRT()
	eng, err := NewRRTEngine(space, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := eng.Snapshot().RRT()
	if res.TotalNodes() != oneShot.TotalNodes() {
		t.Fatalf("round-0 nodes %d != one-shot %d", res.TotalNodes(), oneShot.TotalNodes())
	}
	if len(res.Bridges) != len(oneShot.Bridges) || res.PrunedCycles != oneShot.PrunedCycles {
		t.Fatalf("round-0 bridges/pruned %d/%d != one-shot %d/%d",
			len(res.Bridges), res.PrunedCycles, len(oneShot.Bridges), oneShot.PrunedCycles)
	}
	if res.TotalTime != oneShot.TotalTime {
		t.Fatalf("round-0 virtual time %v != one-shot %v", res.TotalTime, oneShot.TotalTime)
	}
	for i, b := range res.Branches {
		if b.Len() != oneShot.Branches[i].Len() {
			t.Fatalf("branch %d: %d nodes vs one-shot %d", i, b.Len(), oneShot.Branches[i].Len())
		}
		for j, n := range b.Nodes {
			if !n.Q.Equal(oneShot.Branches[i].Nodes[j].Q, 0) || n.Parent != oneShot.Branches[i].Nodes[j].Parent {
				t.Fatalf("branch %d node %d differs", i, j)
			}
		}
	}
}

// Growing N rounds must not depend on how the calls are batched: the
// engine's state is a pure function of (options, committed rounds).
func TestEngineDeterministicAcrossCalls(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	opts := testEngineOpts()
	const rounds = 3

	batched, err := NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.GrowN(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	stepped, err := NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := stepped.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	a := batched.Snapshot().PRM()
	b := stepped.Snapshot().PRM()
	if !bytes.Equal(roadmapBytes(t, a.Roadmap), roadmapBytes(t, b.Roadmap)) {
		t.Fatal("batched and stepped growth produced different roadmaps")
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("batched virtual time %v != stepped %v", a.TotalTime, b.TotalTime)
	}
	if batched.Rounds() != rounds || stepped.Rounds() != rounds {
		t.Fatalf("rounds = %d, %d; want %d", batched.Rounds(), stepped.Rounds(), rounds)
	}
}

// Snapshots must serve concurrent queries while the engine grows: run
// readers against whatever snapshot is current while Grow commits new
// rounds (this test is the -race sentinel for the serving layer).
func TestSnapshotQueryConcurrentWithGrow(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	eng, err := NewEngine(space, testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	start, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	// Readers share the index's pooled search scratch while each Grow
	// publishes a larger roadmap, so a scratch sized for one snapshot is
	// handed to a query against the next. Every answer, scalar or
	// batched, must be a collision-free path between its own endpoints.
	starts := []Config{start, V(0.05, 0.95, 0.05), V(0.95, 0.05, 0.95), start}
	goals := []Config{goal, goal, V(0.05, 0.95, 0.95), goal}
	check := func(path []Config, ok bool, from, to Config) bool {
		if !ok {
			if path != nil {
				t.Error("missed query returned a path")
			}
			return path == nil
		}
		if !path[0].Equal(from, 0) || !path[len(path)-1].Equal(to, 0) || !cspace.PathValid(space, path, nil) {
			t.Error("snapshot query returned an invalid path")
			return false
		}
		return true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := eng.Snapshot()
				if i%2 == 0 {
					j := i / 2 % len(starts)
					path, ok := snap.Query(starts[j], goals[j], 8)
					if !check(path, ok, starts[j], goals[j]) {
						return
					}
				} else {
					paths, oks := snap.QueryBatch(starts, goals, 8)
					for j := range paths {
						if !check(paths[j], oks[j], starts[j], goals[j]) {
							return
						}
					}
				}
				// A snapshot never loses nodes relative to its own round.
				if snap.Rounds() > 0 && snap.NumNodes() == 0 {
					t.Error("committed snapshot has no nodes")
					return
				}
			}
		}(r)
	}
	nodes := 0
	for i := 0; i < 3; i++ {
		if err := eng.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := eng.Snapshot().NumNodes(); n <= nodes {
			t.Fatalf("round %d published %d nodes after %d: not a larger snapshot", i, n, nodes)
		} else {
			nodes = n
		}
	}
	close(done)
	wg.Wait()
	if _, ok := eng.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("final snapshot cannot solve the benchmark query")
	}
}

// cancelAfterReplay returns an Options.Runtime that runs every phase
// replay on the default simulator and then calls *cancel, when set —
// cancellation at an exact point of a round, not after a wall-clock delay.
func cancelAfterReplay(cancel *context.CancelFunc) sched.Runtime {
	return sched.RuntimeFunc(func(cfg sched.Config, queues [][]work.Task) sched.Report {
		rep := dist.Runtime.Run(cfg, queues)
		if *cancel != nil {
			(*cancel)()
		}
		return rep
	})
}

// A canceled context must abort growth without tearing state: the
// previous snapshot stays valid, the round counter is unchanged, no
// goroutines leak, and the engine can resume growing afterwards.
func TestEngineCancellation(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	opts := testEngineOpts()
	opts.SamplesPerRegion = 40
	var cancelMid context.CancelFunc
	opts.Runtime = cancelAfterReplay(&cancelMid)
	eng, err := NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	committed := roadmapBytes(t, eng.Snapshot().PRM().Roadmap)
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
	// The aborted round must not have touched the committed state.
	if eng.Rounds() != 1 {
		t.Fatalf("aborted round changed round count: %d", eng.Rounds())
	}
	if got := roadmapBytes(t, eng.Snapshot().PRM().Roadmap); !bytes.Equal(got, committed) {
		t.Fatal("aborted round mutated the committed roadmap")
	}

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
	ref, err := NewEngine(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.GrowN(context.Background(), eng.Rounds()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(roadmapBytes(t, eng.Snapshot().PRM().Roadmap), roadmapBytes(t, ref.Snapshot().PRM().Roadmap)) {
		t.Fatal("growth after cancellation diverged from uninterrupted growth")
	}
}

// RRT engines must also be deterministic across call batching.
func TestEngineRRTDeterministicAcrossCalls(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root := V(0.5, 0.5, 0.5)
	opts := Options{Procs: 4, Regions: 32, NodesPerRegion: 15, Seed: 3}

	a, err := NewRRTEngine(space, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.GrowN(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	b, err := NewRRTEngine(space, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ra, rb := a.Snapshot().RRT(), b.Snapshot().RRT()
	if ra.TotalNodes() != rb.TotalNodes() || len(ra.Bridges) != len(rb.Bridges) {
		t.Fatalf("batched (%d nodes, %d bridges) != stepped (%d nodes, %d bridges)",
			ra.TotalNodes(), len(ra.Bridges), rb.TotalNodes(), len(rb.Bridges))
	}
	for i := range ra.Branches {
		if ra.Branches[i].Len() != rb.Branches[i].Len() {
			t.Fatalf("branch %d: %d vs %d nodes", i, ra.Branches[i].Len(), rb.Branches[i].Len())
		}
		for j := range ra.Branches[i].Nodes {
			if !ra.Branches[i].Nodes[j].Q.Equal(rb.Branches[i].Nodes[j].Q, 0) {
				t.Fatalf("branch %d node %d differs", i, j)
			}
		}
	}
	// Every round must strictly extend the structure.
	if a.Rounds() != 2 {
		t.Fatalf("rounds = %d; want 2", a.Rounds())
	}
	one, err := PlanRRT(space, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalNodes() <= one.RRT().TotalNodes() {
		t.Fatalf("2 rounds (%d nodes) did not grow past round 0 (%d nodes)", ra.TotalNodes(), one.RRT().TotalNodes())
	}
}

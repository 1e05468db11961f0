package parmp

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"parmp/internal/core"
)

// Snapshot.Query must answer (nil, false) — never panic — for malformed
// inputs: k ≤ 0, endpoints of the wrong dimension, endpoints outside the
// space's bounds, and NaN coordinates. Checked against both snapshot
// kinds, since the PRM and tree query paths diverge immediately, and
// against the snapshots the three one-shot planners return.
func TestSnapshotQueryValidation(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	prmEng, err := NewEngine(space, testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := prmEng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}

	rrtSpace := NewPointSpace(EnvironmentByName("mixed-30"))
	root := V(0.5, 0.5, 0.5)
	rrtEng, err := NewRRTEngine(rrtSpace, root, Options{Procs: 4, Regions: 32, NodesPerRegion: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := rrtEng.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	planned := func(snap *Snapshot, err error) *Snapshot {
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	rrtOpts := Options{Procs: 4, Regions: 32, NodesPerRegion: 20, Radius: 0.9, Seed: 7}
	snaps := []*Snapshot{prmEng.Snapshot(), rrtEng.Snapshot(),
		planned(PlanPRM(space, testEngineOpts())),
		planned(PlanRRT(rrtSpace, root, rrtOpts)),
		planned(PlanRRTConnect(rrtSpace, root, V(0.9, 0.9, 0.9), rrtOpts)),
	}

	good := [2]Config{V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)}
	bad := []struct {
		name        string
		start, goal Config
		k           int
	}{
		{"k zero", good[0], good[1], 0},
		{"k negative", good[0], good[1], -3},
		{"start short", V(0.1, 0.1), good[1], 8},
		{"goal long", good[0], V(0.9, 0.9, 0.9, 0.9), 8},
		{"start nil", nil, good[1], 8},
		{"start out of bounds", V(-0.5, 0.5, 0.5), good[1], 8},
		{"goal out of bounds", good[0], V(0.5, 0.5, 1.5), 8},
		{"NaN coordinate", V(math.NaN(), 0.5, 0.5), good[1], 8},
	}
	for i, snap := range snaps {
		for _, tc := range bad {
			path, ok := snap.Query(tc.start, tc.goal, tc.k)
			if ok || path != nil {
				t.Errorf("snapshot %d, %s: Query returned ok=%v path=%v, want miss", i, tc.name, ok, path)
			}
		}
	}

	// Sanity: the screened path still serves well-formed queries.
	if _, ok := prmEng.Snapshot().Query(good[0], good[1], 8); !ok {
		t.Fatal("well-formed PRM query should still succeed after one round")
	}
}

// QueryBatch must align answers with inputs, screen malformed queries
// individually, and agree with Query on every well-formed one.
func TestSnapshotQueryBatchMatchesQuery(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube"))
	eng, err := NewEngine(space, testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()

	starts := []Config{
		V(0.05, 0.05, 0.05),
		V(0.1, 0.1), // wrong dimension: misses alone
		V(0.1, 0.9, 0.1),
		V(0.05, 0.05, 0.05),     // repeat of query 0
		V(math.NaN(), 0.5, 0.5), // NaN: misses alone
	}
	goals := []Config{
		V(0.95, 0.95, 0.95),
		V(0.95, 0.95, 0.95),
		V(0.95, 0.95, 0.95), // shares a goal with query 0
		V(0.95, 0.95, 0.95),
		V(0.95, 0.95, 0.95),
	}
	paths, oks := snap.QueryBatch(starts, goals, 8)
	if len(paths) != len(starts) || len(oks) != len(starts) {
		t.Fatalf("batch result length %d/%d, want %d", len(paths), len(oks), len(starts))
	}
	if oks[1] || oks[4] {
		t.Fatal("malformed queries must miss")
	}
	for _, i := range []int{0, 2, 3} {
		refPath, refOK := snap.Query(starts[i], goals[i], 8)
		if oks[i] != refOK {
			t.Fatalf("query %d: batch ok=%v, scalar ok=%v", i, oks[i], refOK)
		}
		if !refOK {
			continue
		}
		if got, want := PathLength(space, paths[i]), PathLength(space, refPath); math.Abs(got-want) > 1e-9 {
			t.Fatalf("query %d: batch length %v, scalar %v", i, got, want)
		}
	}

	// Mismatched slice lengths: whole batch misses, aligned to starts.
	if _, oks := snap.QueryBatch(starts[:2], goals[:1], 8); len(oks) != 2 || oks[0] || oks[1] {
		t.Fatal("mismatched batch must miss everything")
	}
}

// Tree snapshots answer batches too — per query, with the same screening.
func TestSnapshotQueryBatchTree(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	root := V(0.5, 0.5, 0.5)
	eng, err := NewRRTEngine(space, root, Options{Procs: 4, Regions: 32, NodesPerRegion: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.GrowN(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	goalA, goalB := V(0.55, 0.55, 0.55), V(0.45, 0.45, 0.45)
	starts := []Config{root, V(0.1, 0.1), root}
	goals := []Config{goalA, goalA, goalB}
	paths, oks := snap.QueryBatch(starts, goals, 8)
	if oks[1] {
		t.Fatal("wrong-dimension tree query must miss")
	}
	for _, i := range []int{0, 2} {
		refPath, refOK := snap.Query(starts[i], goals[i], 8)
		if oks[i] != refOK {
			t.Fatalf("tree query %d: batch ok=%v, scalar ok=%v", i, oks[i], refOK)
		}
		if refOK && math.Abs(PathLength(space, paths[i])-PathLength(space, refPath)) > 1e-9 {
			t.Fatalf("tree query %d: path lengths differ", i)
		}
	}
}

// A batch is its queries: with a wrong-dimension, a NaN and an
// out-of-bounds slot between good ones, every slot — good or malformed —
// is exactly what Query answers for that pair, for both snapshot kinds.
func TestSnapshotQueryBatchIsItsQueries(t *testing.T) {
	ctx := context.Background()
	prmEng, err := NewEngine(NewPointSpace(EnvironmentByName("med-cube")), testEngineOpts())
	if err != nil {
		t.Fatal(err)
	}
	root := V(0.5, 0.5, 0.5)
	rrtEng, err := NewRRTEngine(NewPointSpace(EnvironmentByName("mixed-30")), root, Options{Procs: 4, Regions: 32, NodesPerRegion: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *Engine
		good [2][2]Config // two well-formed (start, goal) pairs
	}{
		{"prm", prmEng, [2][2]Config{{V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)}, {V(0.1, 0.9, 0.1), V(0.95, 0.95, 0.95)}}},
		{"tree", rrtEng, [2][2]Config{{root, V(0.5, 0.5, 0.6)}, {root, V(0.3, 0.3, 0.3)}}},
	} {
		if err := tc.eng.GrowN(ctx, 2); err != nil {
			t.Fatal(err)
		}
		snap := tc.eng.Snapshot()
		a, b := tc.good[0], tc.good[1]
		starts := []Config{a[0], V(0.1, 0.1), b[0], V(math.NaN(), 0.5, 0.5), a[0], b[0], b[0]}
		goals := []Config{a[1], a[1], b[1], b[1], a[1], V(0.5, 0.5, 1.5), b[1]}
		paths, oks := snap.QueryBatch(starts, goals, 8)
		solved := 0
		for i := range starts {
			want, wantOK := snap.Query(starts[i], goals[i], 8)
			if oks[i] != wantOK || !reflect.DeepEqual(paths[i], want) {
				t.Fatalf("%s slot %d: batch (%v, %v), Query (%v, %v)", tc.name, i, paths[i], oks[i], want, wantOK)
			}
			if wantOK {
				solved++
			}
		}
		if solved != 4 {
			t.Fatalf("%s: %d slots solved, want the 4 well-formed ones", tc.name, solved)
		}
	}
}

// A tree snapshot's paths run from the engine's root, so its start rule
// is: the root itself gets the root-to-goal path, a start one free local
// plan from the root gets that path with the start prepended, and any
// other start misses — one whose segment to the root crosses an
// obstacle, one in collision — as does every query on an empty snapshot.
func TestSnapshotTreeQueryStartRule(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("med-cube")) // cube [0.19, 0.81]³
	root, goal := V(0.1, 0.5, 0.5), V(0.1, 0.9, 0.5)
	eng, err := NewRRTEngine(space, root, Options{Procs: 4, Regions: 32, NodesPerRegion: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if path, ok := eng.Snapshot().Query(root, goal, 8); ok || path != nil {
		t.Fatalf("empty snapshot answered (%v, %v), want a miss", path, ok)
	}
	if err := eng.GrowN(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	want, ok := core.BuildTreeIndex(snap.RRT()).ExtractPath(space, goal, nil)
	if !ok || !want[0].Equal(root, 0) {
		t.Fatalf("fixture: goal %v not attached from the root (%v, %v)", goal, want, ok)
	}
	if got, ok := snap.Query(root, goal, 8); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("root start: (%v, %v), want (%v, true)", got, ok, want)
	}
	near := V(0.15, 0.5, 0.5)
	if got, ok := snap.Query(near, goal, 8); !ok || !reflect.DeepEqual(got, append([]Config{near}, want...)) {
		t.Fatalf("start %v a free step from the root: (%v, %v), want it prepended to %v", near, got, ok, want)
	}
	for _, tc := range []struct {
		name  string
		start Config
	}{
		{"segment to the root crosses the cube", V(0.9, 0.5, 0.5)},
		{"start in collision", V(0.5, 0.5, 0.5)},
	} {
		if got, ok := snap.Query(tc.start, goal, 8); ok || got != nil {
			t.Errorf("%s: (%v, %v), want a miss", tc.name, got, ok)
		}
	}
}

// One options gate: a negative (or NaN) size is an error that names the
// field, from PlanPRM, PlanRRT and NewPortfolio alike, never a default
// planned in its place; zero still means the default. At the parent a
// negative Procs planned on 4 processors and a negative Racers raced 4.
// A Strategy, CostModel, Rebalance or Partitioner outside its constants
// is refused the same way, where it used to plan as the zero behaviour.
func TestNegativeOptionsRejected(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("walls"))
	root := V(0.5, 0.5, 0.5)
	base := Options{Procs: 2, Regions: 8, SamplesPerRegion: 4, NodesPerRegion: 4, Radius: 0.5, Seed: 1}
	for _, tc := range []struct {
		field string
		set   func(o *Options)
	}{
		{"Procs", func(o *Options) { o.Procs = -1 }},
		{"Regions", func(o *Options) { o.Regions = -1 }},
		{"SamplesPerRegion", func(o *Options) { o.SamplesPerRegion = -1 }},
		{"ConnectK", func(o *Options) { o.ConnectK = -1 }},
		{"BoundaryK", func(o *Options) { o.BoundaryK = -1 }},
		{"BoundaryFrontier", func(o *Options) { o.BoundaryFrontier = -1 }},
		{"NodesPerRegion", func(o *Options) { o.NodesPerRegion = -1 }},
		{"HostWorkers", func(o *Options) { o.HostWorkers = -1 }},
		{"Step", func(o *Options) { o.Step = -0.1 }},
		{"Step", func(o *Options) { o.Step = math.NaN() }},
		{"Radius", func(o *Options) { o.Radius = -1 }},
		{"Radius", func(o *Options) { o.Radius = math.NaN() }},
		{"StealChunk", func(o *Options) { o.StealChunk = -0.5 }},
		{"StealChunk", func(o *Options) { o.StealChunk = math.NaN() }},
		{"Strategy", func(o *Options) { o.Strategy = 5 }},
		{"Strategy", func(o *Options) { o.Strategy = -1 }},
		{"CostModel", func(o *Options) { o.CostModel = 7 }},
		{"Rebalance", func(o *Options) { o.Rebalance = 9 }},
		{"Partitioner", func(o *Options) { o.Partitioner = 3 }},
	} {
		opts := base
		tc.set(&opts)
		if _, err := PlanPRM(space, opts); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("PlanPRM with a bad %s: err = %v, want one naming the field", tc.field, err)
		}
		if _, err := PlanRRT(space, root, opts); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("PlanRRT with a bad %s: err = %v, want one naming the field", tc.field, err)
		}
	}
	if _, err := PlanPRM(space, Options{}); err != nil {
		t.Errorf("zero Options: %v, want every field defaulted", err)
	}
	// The deprecated WorkStealing is still a Strategy.
	if _, err := PlanPRM(space, Options{Strategy: core.WorkStealing}); err != nil {
		t.Errorf("Strategy WorkStealing: %v, want it accepted", err)
	}

	start, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	for _, tc := range []struct {
		field string
		po    PortfolioOptions
	}{
		{"Racers", PortfolioOptions{Racers: -1}},
		{"UnitRounds", PortfolioOptions{UnitRounds: -1}},
		{"MaxWaves", PortfolioOptions{MaxWaves: -1}},
	} {
		if _, err := NewPortfolio(space, start, goal, base, tc.po); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("NewPortfolio with a negative %s: err = %v, want one naming the field", tc.field, err)
		}
	}
}

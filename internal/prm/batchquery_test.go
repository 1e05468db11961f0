package prm

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// pathLength sums a path's metric hops.
func pathLength(s *cspace.Space, path []cspace.Config) float64 {
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		sum += s.Distance(path[i], path[i+1])
	}
	return sum
}

// samePath reports whether two paths are the same floats, waypoint for
// waypoint.
func samePath(a, b []cspace.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			return false
		}
	}
	return true
}

func randomValid(s *cspace.Space, r *rng.Stream) cspace.Config {
	for {
		q := make(cspace.Config, s.Dim())
		for d := 0; d < s.Dim(); d++ {
			q[d] = r.Range(s.Bounds.Lo[d], s.Bounds.Hi[d])
		}
		if s.Valid(q, nil) {
			return q
		}
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	// Every batch answer must be the scalar Query's: same success/failure,
	// the same path float for float, and a valid hop chain.
	cases := []struct {
		name  string
		space *cspace.Space
	}{
		{"free", freeSpace()},
		{"med-cube", cspace.NewPointSpace(env.MedCube())},
	}
	for _, tc := range cases {
		m := buildTestRoadmap(t, tc.space, 80, 11)
		ix := BuildIndex(m)
		r := rng.New(99)
		const nq = 40
		starts := make([]cspace.Config, nq)
		goals := make([]cspace.Config, nq)
		// Mix of distinct pairs, repeated pairs and shared goals.
		hotGoal := randomValid(tc.space, r)
		for i := range starts {
			switch i % 4 {
			case 0, 1:
				starts[i] = randomValid(tc.space, r)
				goals[i] = randomValid(tc.space, r)
			case 2:
				starts[i] = randomValid(tc.space, r)
				goals[i] = hotGoal
			default:
				starts[i] = starts[i-3]
				goals[i] = goals[i-3]
			}
		}
		sc := &BatchScratch{}
		paths, oks := ix.QueryBatch(tc.space, starts, goals, 4, sc, nil)
		for i := range starts {
			refPath, refOK := ix.Query(tc.space, starts[i], goals[i], 4, nil)
			if oks[i] != refOK {
				t.Fatalf("%s query %d: batch ok=%v, scalar ok=%v", tc.name, i, oks[i], refOK)
			}
			if !oks[i] {
				if paths[i] != nil {
					t.Fatalf("%s query %d: missed query returned a path", tc.name, i)
				}
				continue
			}
			if !paths[i][0].Equal(starts[i], 0) || !paths[i][len(paths[i])-1].Equal(goals[i], 0) {
				t.Fatalf("%s query %d: path endpoints wrong", tc.name, i)
			}
			for h := 0; h+1 < len(paths[i]); h++ {
				if !tc.space.LocalPlan(paths[i][h], paths[i][h+1], nil) {
					t.Fatalf("%s query %d: hop %d invalid", tc.name, i, h)
				}
			}
			if !samePath(paths[i], refPath) {
				t.Fatalf("%s query %d: batch path %v, scalar %v", tc.name, i, paths[i], refPath)
			}
		}
	}
}

func TestQueryBatchDegenerate(t *testing.T) {
	s := freeSpace()
	m := buildTestRoadmap(t, s, 40, 5)
	ix := BuildIndex(m)
	a, b := geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9)

	// k <= 0, mismatched slice lengths, empty batch: all-miss, no panic.
	if paths, oks := ix.QueryBatch(s, []cspace.Config{a}, []cspace.Config{b}, 0, nil, nil); oks[0] || paths[0] != nil {
		t.Fatal("k=0 must miss")
	}
	if _, oks := ix.QueryBatch(s, []cspace.Config{a}, nil, 4, nil, nil); len(oks) != 1 || oks[0] {
		t.Fatal("mismatched lengths must miss")
	}
	if paths, _ := ix.QueryBatch(s, nil, nil, 4, nil, nil); len(paths) != 0 {
		t.Fatal("empty batch must return empty results")
	}

	// Wrong-dimension and in-collision endpoints miss without disturbing
	// the rest of the batch.
	blocked := cspace.NewPointSpace(env.MedCube())
	mb := buildTestRoadmap(t, blocked, 80, 11)
	ixb := BuildIndex(mb)
	starts := []cspace.Config{geom.V(0.1, 0.1), geom.V(0.5, 0.5, 0.5), geom.V(0.05, 0.05, 0.05)}
	goals := []cspace.Config{geom.V(0.9, 0.9, 0.9), geom.V(0.9, 0.9, 0.9), geom.V(0.95, 0.95, 0.95)}
	paths, oks := ixb.QueryBatch(blocked, starts, goals, 4, nil, nil)
	if oks[0] || oks[1] {
		t.Fatal("invalid endpoints must miss")
	}
	refPath, refOK := ixb.Query(blocked, starts[2], goals[2], 4, nil)
	if oks[2] != refOK {
		t.Fatalf("valid query in mixed batch: ok=%v, scalar=%v", oks[2], refOK)
	}
	if !samePath(paths[2], refPath) {
		t.Fatal("valid query in mixed batch is not the scalar answer")
	}

	// Empty roadmap: all-miss.
	ixe := BuildIndex(roadmapOf(s, nil, nil))
	if _, oks := ixe.QueryBatch(s, []cspace.Config{a}, []cspace.Config{b}, 4, nil, nil); oks[0] {
		t.Fatal("empty roadmap must miss")
	}
}

func TestQueryBatchDisconnected(t *testing.T) {
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)},
		},
	}
	s := cspace.NewPointSpace(e)
	m := roadmapOf(s, []Node{{Q: geom.V(0.1, 0.5, 0.5)}, {Q: geom.V(0.9, 0.5, 0.5)}}, nil)
	ix := BuildIndex(m)
	starts := []cspace.Config{geom.V(0.05, 0.5, 0.5), geom.V(0.05, 0.5, 0.5)}
	goals := []cspace.Config{geom.V(0.95, 0.5, 0.5), geom.V(0.15, 0.5, 0.5)}
	paths, oks := ix.QueryBatch(s, starts, goals, 1, nil, nil)
	if oks[0] {
		t.Fatal("wall-separated query must fail")
	}
	if !oks[1] {
		t.Fatal("same-side query must succeed")
	}
	if len(paths[1]) < 2 {
		t.Fatal("same-side path degenerate")
	}
}

func TestQueryBatchScratchReuse(t *testing.T) {
	// Steady state: once a scratch has served a batch, the next one
	// allocates only what it returns — the two result slices and, per hit,
	// the waypoint slice and its coordinate slab — and answers the same.
	// A nil scratch (pooled) answers the same too; its allocations are not
	// counted here because the race detector makes sync.Pool drop items.
	s := freeSpace()
	m := buildTestRoadmap(t, s, 60, 7)
	ix := BuildIndex(m)
	r := rng.New(3)
	starts := make([]cspace.Config, 8)
	goals := make([]cspace.Config, 8)
	for i := range starts {
		starts[i] = randomValid(s, r)
		goals[i] = randomValid(s, r)
	}
	goals[5], goals[6] = goals[4], goals[4] // a shared goal
	sc := &BatchScratch{}
	first, firstOK := ix.QueryBatch(s, starts, goals, 4, sc, nil)
	hits := 0
	for _, ok := range firstOK {
		if ok {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no query of the batch solved")
	}
	allocs := testing.AllocsPerRun(10, func() { ix.QueryBatch(s, starts, goals, 4, sc, nil) })
	if want := float64(2 + 2*hits); allocs != want {
		t.Fatalf("steady-state batch allocates %v times, want %v", allocs, want)
	}
	for _, sc := range []*BatchScratch{sc, nil, nil} {
		again, _ := ix.QueryBatch(s, starts, goals, 4, sc, nil)
		for i := range first {
			if !samePath(first[i], again[i]) {
				t.Fatalf("query %d: answer changed with a reused scratch (own: %v)", i, sc != nil)
			}
		}
	}
}

// FuzzQueryBatchVsQuery is the batch/scalar contract: a batch is its
// queries. Whatever the shape of the batch, QueryBatch screens it slot by
// slot, never panics, and slot i is Index.Query's answer bit for bit — a
// miss (nil path) where an endpoint has the wrong dimension. shape spends
// one byte per query: fresh pair, goal shared with the previous query,
// previous pair repeated, start == goal, an endpoint in collision, an
// endpoint of the wrong dimension.
func FuzzQueryBatchVsQuery(f *testing.F) {
	// Fixed roadmaps: building one per input would leave the fuzzer no
	// time to explore.
	spaces := []*cspace.Space{freeSpace(), cspace.NewPointSpace(env.MedCube()), weightedSpace()}
	indexes := make([]*Index, len(spaces))
	for i, s := range spaces {
		indexes[i] = BuildIndex(buildTestRoadmap(f, s, 50, uint64(i)+21))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte, kb uint8) {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		which := int(seed % uint64(len(spaces)))
		s, ix := spaces[which], indexes[which]
		k := int(kb) // 0 misses everything, large values exceed the node count
		r := rng.New(seed)
		starts := make([]cspace.Config, len(shape))
		goals := make([]cspace.Config, len(shape))
		for i, b := range shape {
			starts[i], goals[i] = randomValid(s, r), randomValid(s, r)
			switch kind := b % 6; {
			case kind == 1 && i > 0:
				goals[i] = goals[i-1]
			case kind == 2 && i > 0:
				starts[i], goals[i] = starts[i-1], goals[i-1]
			case kind == 3:
				goals[i] = starts[i]
			case kind == 4:
				starts[i] = geom.V(0.5, 0.5, 0.5) // inside med-cube's obstacle
			case kind == 5:
				goals[i] = goals[i][:2]
			}
		}
		paths, oks := ix.QueryBatch(s, starts, goals, k, nil, nil)
		if len(paths) != len(shape) || len(oks) != len(shape) {
			t.Fatalf("batch of %d answered with %d paths, %d flags", len(shape), len(paths), len(oks))
		}
		for i := range shape {
			var want []cspace.Config
			var wantOK bool
			if len(starts[i]) == s.Dim() && len(goals[i]) == s.Dim() {
				want, wantOK = ix.Query(s, starts[i], goals[i], k, nil)
			}
			if oks[i] != wantOK || !samePath(paths[i], want) {
				t.Fatalf("query %d: batch (%v, %v), scalar (%v, %v)", i, paths[i], oks[i], want, wantOK)
			}
			if !oks[i] {
				if paths[i] != nil {
					t.Fatalf("query %d: missed query returned a path", i)
				}
				continue
			}
			if !paths[i][0].Equal(starts[i], 0) || !paths[i][len(paths[i])-1].Equal(goals[i], 0) {
				t.Fatalf("query %d: path endpoints are not the query's", i)
			}
		}
	})
}

package prm

import (
	"math"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// scratchFixture is one index with a few queries and their answers from
// a scratch of their own.
type scratchFixture struct {
	s      *cspace.Space
	ix     *Index
	starts []cspace.Config
	goals  []cspace.Config
	want   [][]cspace.Config
}

func newScratchFixture(t *testing.T, samples int, seed uint64) *scratchFixture {
	s := cspace.NewPointSpace(env.MedCube())
	f := &scratchFixture{s: s, ix: BuildIndex(buildTestRoadmap(t, s, samples, seed))}
	r := rng.New(seed + 50)
	for i := 0; i < 6; i++ {
		f.starts = append(f.starts, randomValid(s, r))
		f.goals = append(f.goals, randomValid(s, r))
		path, _ := f.ix.query(&BatchScratch{}, s, f.starts[i], f.goals[i], 4, nil)
		f.want = append(f.want, path)
	}
	return f
}

// check answers every query of the fixture, scalar and batched, through
// sc and requires the fresh-scratch answers.
func (f *scratchFixture) check(t *testing.T, tag string, sc *BatchScratch) {
	t.Helper()
	for i := range f.starts {
		if got, _ := f.ix.query(sc, f.s, f.starts[i], f.goals[i], 4, nil); !samePath(got, f.want[i]) {
			t.Fatalf("%s: query %d differs from its fresh-scratch answer", tag, i)
		}
	}
	paths, oks := f.ix.QueryBatch(f.s, f.starts, f.goals, 4, sc, nil)
	for i := range paths {
		if oks[i] != (f.want[i] != nil) || !samePath(paths[i], f.want[i]) {
			t.Fatalf("%s: batch query %d (ok=%v) differs from its fresh-scratch answer", tag, i, oks[i])
		}
	}
}

func TestScratchServesIndexesOfDifferentSizes(t *testing.T) {
	// One scratch, as the pool hands it round: a small roadmap, then one
	// it has to regrow for, then the small one again over arrays full of
	// the large one's stamps.
	small, large := newScratchFixture(t, 30, 3), newScratchFixture(t, 300, 4)
	sc := &BatchScratch{}
	small.check(t, "small", sc)
	large.check(t, "large", sc)
	small.check(t, "small again", sc)
	if len(sc.seen) != large.ix.NumNodes() {
		t.Fatalf("scratch sized for %d nodes, want the largest roadmap's %d", len(sc.seen), large.ix.NumNodes())
	}
}

func TestScratchGenerationWrapAround(t *testing.T) {
	// The state 2^32 searches leave behind: every vertex stamped by some
	// old generation, here all by generation 2 with a distance nothing can
	// beat. The searches after the wrap reuse the numbers 1, 2, 3, ... and
	// must not take those stamps for their own.
	f := newScratchFixture(t, 120, 9)
	sc := &BatchScratch{}
	f.check(t, "warm", sc)
	for v := range sc.seen {
		sc.seen[v], sc.mark[v], sc.dist[v] = 2, 2, 0
	}
	sc.gen = math.MaxUint32 - 1
	f.check(t, "across the wrap", sc)
	if sc.gen >= math.MaxUint32-1 {
		t.Fatalf("generation %d did not wrap", sc.gen)
	}
}

func TestQueryAllocsIndependentOfSearchSize(t *testing.T) {
	// A warm scratch leaves the returned path as the only allocation: the
	// waypoint slice and its coordinate slab, however many vertices the
	// search settled on the way.
	s := cspace.NewPointSpace(env.MedCube())
	ix := BuildIndex(buildTestRoadmap(t, s, 400, 13))
	sc := &BatchScratch{}
	near := [2]cspace.Config{geom.V(0.1, 0.1, 0.1), geom.V(0.15, 0.1, 0.1)}
	far := [2]cspace.Config{geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.95, 0.95)}
	var hops [2]int
	var allocs [2]float64
	for i, pair := range [][2]cspace.Config{near, far} {
		path, ok := ix.query(sc, s, pair[0], pair[1], 8, nil)
		if !ok {
			t.Fatalf("pair %d unsolved", i)
		}
		hops[i] = len(path)
		allocs[i] = testing.AllocsPerRun(20, func() { ix.query(sc, s, pair[0], pair[1], 8, nil) })
	}
	if hops[1] <= hops[0] {
		t.Fatalf("far path has %d waypoints, near %d: the pairs do not differ in search size", hops[1], hops[0])
	}
	if allocs[0] != 2 || allocs[1] != 2 {
		t.Fatalf("allocations per query: near %v, far %v, want 2 and 2", allocs[0], allocs[1])
	}
	// A batch is its queries: two allocations per hit and the two result
	// slices, nothing of its own.
	starts, goals := []cspace.Config{near[0], far[0]}, []cspace.Config{near[1], far[1]}
	if got := testing.AllocsPerRun(20, func() { ix.QueryBatch(s, starts, goals, 8, sc, nil) }); got != 2*2+2 {
		t.Fatalf("allocations per batch of two hits: %v, want 6", got)
	}
}

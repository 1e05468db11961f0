package prm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

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
	if len(sc.nodes) != large.ix.NumNodes() {
		t.Fatalf("scratch sized for %d nodes, want the largest roadmap's %d", len(sc.nodes), large.ix.NumNodes())
	}
	// The per-node search state is one record per node, of at most 32 B.
	if size := unsafe.Sizeof(nodeState{}); size > 32 {
		t.Fatalf("nodeState is %d B, want at most 32", size)
	}
}

func TestScratchGenerationWrapAround(t *testing.T) {
	// The state 2^32 searches leave behind: every vertex stamped by some
	// old generation, here all by generation 2 with a distance nothing can
	// beat, a heuristic that is not its own and a frontier slot that is
	// in range but not its own. The searches after the wrap reuse the
	// numbers 1, 2, 3, ... and must not take those stamps, or anything
	// they guard, for their own.
	f := newScratchFixture(t, 120, 9)
	sc := &BatchScratch{}
	f.check(t, "warm", sc)
	for v := range sc.nodes {
		sc.nodes[v] = nodeState{dist: 0, h: float64(v%5) / 4, prev: int32(v / 2), pos: int32(v % 3), seen: 2, mark: 2}
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
	// The same holds through a forest of region trees.
	s := cspace.NewPointSpace(env.MedCube())
	m := buildTestRoadmap(t, s, 400, 13)
	for _, ix := range []*Index{BuildIndex(m), BuildIndex(withTrees(m, 37))} {
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
		// A batch is its queries: two allocations per hit and the two
		// result slices, nothing of its own.
		starts, goals := []cspace.Config{near[0], far[0]}, []cspace.Config{near[1], far[1]}
		if got := testing.AllocsPerRun(20, func() { ix.QueryBatch(s, starts, goals, 8, sc, nil) }); got != 2*2+2 {
			t.Fatalf("allocations per batch of two hits: %v, want 6", got)
		}
	}
}

// latticeFixture is a roadmap whose routes tie exactly: the points of a
// 1/8 grid over free space, each joined to its axis neighbours by an edge
// of weight s.Distance.
func latticeFixture() queryFixture {
	s := freeSpace()
	const side = 9
	id := func(i, j, k int) int { return (i*side+j)*side + k }
	var nodes []Node
	var edges [][2]int
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				nodes = append(nodes, Node{Q: geom.V(float64(i)/8, float64(j)/8, float64(k)/8)})
			}
		}
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				for _, n := range [][3]int{{i + 1, j, k}, {i, j + 1, k}, {i, j, k + 1}} {
					if n[0] < side && n[1] < side && n[2] < side {
						edges = append(edges, [2]int{id(i, j, k), id(n[0], n[1], n[2])})
					}
				}
			}
		}
	}
	return queryFixture{name: "lattice", s: s, ix: BuildIndex(roadmapOf(s, nodes, edges)), seed: 4}
}

// latticePoint is a grid point moved along one axis by less than 1e-3.
// Such an endpoint attaches to the grid nodes around it at costs that
// round differently, so with large k two routes to one vertex can come
// within an ulp of each other: an improvement that keeps f and lowers g.
func latticePoint(r *rng.Stream) cspace.Config {
	q := geom.V(float64(r.Intn(9))/8, float64(r.Intn(9))/8, float64(r.Intn(9))/8)
	d := r.Intn(3)
	q[d] = math.Abs(q[d] - r.Range(0, 1e-3))
	return q
}

// matchLazy attaches one pair through ix.endpoints, searches from the
// same attachments with search and with the lazy-heap oracle, and
// requires the same exit and the same path.
func matchLazy(t *testing.T, tag string, f queryFixture, sc *BatchScratch, start, goal cspace.Config, k int) {
	t.Helper()
	starts, goals := f.ix.endpoints(sc, f.s, start, goal, k, nil)
	if len(goals) == 0 {
		return
	}
	wantExit, prev := lazySearch(f.ix, f.s, goal, starts, goals)
	exit := f.ix.search(sc, f.s, goal, starts, goals)
	if exit != wantExit {
		t.Fatalf("%s: exit %d, lazy heap %d", tag, exit, wantExit)
	}
	if exit < 0 {
		return
	}
	lazy := &BatchScratch{nodes: make([]nodeState, len(prev))}
	for v, p := range prev {
		lazy.nodes[v].prev = p
	}
	if got, want := f.ix.path(sc, exit, start, goal), f.ix.path(lazy, exit, start, goal); !samePath(got, want) {
		t.Fatalf("%s: path %v, lazy heap %v", tag, got, want)
	}
}

func TestSearchMatchesLazyHeap(t *testing.T) {
	// One scratch across every fixture and query, as the pool hands it
	// round. Lattice endpoints sit next to grid points, and more of them
	// are drawn: about one lattice query in a hundred at k = 40 files an
	// improvement that ties f.
	sc := &BatchScratch{}
	for _, f := range append(queryFixtures(t), latticeFixture()) {
		r := rng.New(f.seed + 2000)
		n := 150
		if f.name == "lattice" {
			n = 1000
		}
		for q := 0; q < n; q++ {
			start, goal := randomValid(f.s, r), randomValid(f.s, r)
			if f.name == "lattice" {
				start, goal = latticePoint(r), latticePoint(r)
			}
			for _, k := range []int{1, 4, 8, 40} {
				matchLazy(t, fmt.Sprintf("%s query %d k=%d", f.name, q, k), f, sc, start, goal, k)
			}
		}
	}
}

// FuzzSearchMatchesLazyHeap is TestSearchMatchesLazyHeap over fuzzed
// fixtures, endpoints and k.
func FuzzSearchMatchesLazyHeap(f *testing.F) {
	fixtures := append(queryFixtures(f), latticeFixture())
	sc := &BatchScratch{}
	f.Add(uint64(1), uint8(3), false)
	f.Add(uint64(7), uint8(39), true)
	f.Fuzz(func(t *testing.T, seed uint64, kb uint8, nearGrid bool) {
		fx := fixtures[seed%uint64(len(fixtures))]
		r := rng.New(seed)
		start, goal := randomValid(fx.s, r), randomValid(fx.s, r)
		if nearGrid && fx.name == "lattice" {
			start, goal = latticePoint(r), latticePoint(r)
		}
		matchLazy(t, fx.name, fx, sc, start, goal, 1+int(kb%48))
	})
}

func TestFrontierHeap(t *testing.T) {
	// Random inserts, improvements and pops against a sorted reference.
	// f and g come from small grids, so equal f (broken by the larger g,
	// then the smaller node) and an improvement that keeps f but lowers g
	// are common; after every operation each entry's slot is in its
	// node's pos, and a node without an entry has pos -1.
	const n = 64
	r := rng.New(5)
	sc := &BatchScratch{}
	sc.begin(n)
	for v := range sc.nodes {
		sc.nodes[v].pos = -1
	}
	live := map[int32]heapEntry{}
	for op := 0; op < 20000; op++ {
		u := int32(r.Intn(n))
		old, in := live[u]
		switch {
		case r.Intn(3) == 0 && len(live) > 0:
			var sorted []heapEntry
			for _, e := range live {
				sorted = append(sorted, e)
			}
			slices.SortFunc(sorted, func(a, b heapEntry) int {
				return cmp.Or(cmp.Compare(a.f, b.f), cmp.Compare(b.g, a.g), cmp.Compare(a.node, b.node))
			})
			want := sorted[0]
			if got := sc.pop(); got != want {
				t.Fatalf("op %d: popped %+v, want %+v", op, got, want)
			}
			delete(live, want.node)
		case !in:
			g := float64(r.Intn(8)) / 4
			e := heapEntry{f: g + float64(r.Intn(8))/4, g: g, node: u}
			sc.fix(e)
			live[u] = e
		case old.g > 0:
			// Improve: a smaller g, and an f either kept (the tie) or lowered
			// by the same amount.
			g := old.g - float64(1+r.Intn(int(old.g*4)))/4
			e := heapEntry{f: old.f, g: g, node: u}
			if r.Intn(2) == 0 {
				e.f = g + (old.f - old.g)
			}
			sc.fix(e)
			live[u] = e
		}
		if len(sc.heap) != len(live) {
			t.Fatalf("op %d: heap holds %d entries, want %d", op, len(sc.heap), len(live))
		}
		for v := range sc.nodes {
			if _, in := live[int32(v)]; !in && sc.nodes[v].pos != -1 {
				t.Fatalf("op %d: node %d has no entry but pos %d", op, v, sc.nodes[v].pos)
			}
		}
		for i, e := range sc.heap {
			if live[e.node] != e {
				t.Fatalf("op %d: slot %d holds %+v, want %+v", op, i, e, live[e.node])
			}
			if sc.nodes[e.node].pos != int32(i) {
				t.Fatalf("op %d: node %d at slot %d has pos %d", op, e.node, i, sc.nodes[e.node].pos)
			}
			if i > 0 && e.before(sc.heap[(i-1)/4]) {
				t.Fatalf("op %d: slot %d orders before its parent", op, i)
			}
		}
	}
}

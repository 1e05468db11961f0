package knn

import (
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// resultsEqual requires exact (Index, Dist2) agreement — the
// deterministic tie-break makes index-level comparison valid.
func resultsEqual(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestNearestIntoMatchesBruteExact is the scratch-kernel property test:
// the pooled kd-tree query must agree with the fresh brute-force
// reference index-for-index, across reuses of the same scratch (stale
// state from a previous query must not leak into the next).
func TestNearestIntoMatchesBruteExact(t *testing.T) {
	r := rng.New(41)
	var sc QueryScratch // deliberately shared across all trials
	var dst []Result
	for trial := 0; trial < 200; trial++ {
		d := 2 + r.Intn(4)
		n := 1 + r.Intn(150)
		k := 1 + r.Intn(12)
		pts := randomPoints(r, n, d)
		tree := Build(pts)
		q := randomPoints(r, 1, d)[0]

		dst, _ = tree.NearestInto(&sc, q, k, -1, dst[:0])
		want := BruteNearest(pts, q, k)
		resultsEqual(t, "nearest", dst, want)

		// Self-exclusion against the brute reference.
		skip := r.Intn(n)
		dst, _ = tree.NearestInto(&sc, pts[skip], k, skip, dst[:0])
		wantEx, _ := BruteNearestInto(new(QueryScratch), pts, pts[skip], k, skip, nil)
		resultsEqual(t, "nearest-skip", dst, wantEx)
	}
}

// TestNearestIntoTieBreak pins the deterministic tie-break: equidistant
// points must come back ordered by index, and the kept k-set must be the
// lexicographically smallest under (Dist2, Index).
func TestNearestIntoTieBreak(t *testing.T) {
	// Eight points all at distance 1 from the origin.
	pts := []geom.Vec{
		geom.V(1, 0), geom.V(-1, 0), geom.V(0, 1), geom.V(0, -1),
		geom.V(1, 0), geom.V(-1, 0), geom.V(0, 1), geom.V(0, -1),
	}
	tree := Build(pts)
	var sc QueryScratch
	got, _ := tree.NearestInto(&sc, geom.V(0, 0), 5, -1, nil)
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("rank %d: index %d, want %d (ordered tie-break)", i, r.Index, i)
		}
	}
	dyn := NewDynamic()
	for _, p := range pts {
		dyn.Add(p)
	}
	gotDyn, _ := dyn.Nearest(geom.V(0, 0), 5)
	resultsEqual(t, "dynamic-tie", gotDyn, got)
}

// TestDynamicNearestIntoMatchesBrute cross-validates the growing-set
// index (tree + pending merge in one heap) against brute force at every
// growth stage, with a shared scratch.
func TestDynamicNearestIntoMatchesBrute(t *testing.T) {
	r := rng.New(43)
	d := &Dynamic{rebuildMin: 8, rebuildFrac: 0.25}
	var sc QueryScratch
	var dst []Result
	var pts []geom.Vec
	for i := 0; i < 300; i++ {
		p := randomPoints(r, 1, 3)[0]
		d.Add(p)
		pts = append(pts, p)
		if i%7 != 0 {
			continue
		}
		q := randomPoints(r, 1, 3)[0]
		dst, _ = d.NearestInto(&sc, q, 6, dst[:0])
		want := BruteNearest(pts, q, 6)
		resultsEqual(t, "dynamic", dst, want)
	}
}

// TestDynamicRebuildThreshold verifies the rebuild
// schedule: with min=4, frac=1.0 a rebuild happens only once pending
// exceeds both 4 and the tree length.
func TestDynamicRebuildThreshold(t *testing.T) {
	r := rng.New(47)
	d := &Dynamic{rebuildMin: 4, rebuildFrac: 1.0}
	for i := 0; i < 5; i++ {
		d.Add(randomPoints(r, 1, 2)[0])
	}
	if d.treeLen != 5 {
		t.Fatalf("after 5 adds (pending 5 > min 4, > 0*1.0): treeLen = %d, want 5", d.treeLen)
	}
	for i := 0; i < 5; i++ {
		d.Add(randomPoints(r, 1, 2)[0])
	}
	// pending = 5 is not > treeLen*1.0 = 5: no rebuild yet.
	if d.treeLen != 5 {
		t.Fatalf("pending == treeLen should not rebuild: treeLen = %d", d.treeLen)
	}
	d.Add(randomPoints(r, 1, 2)[0])
	if d.treeLen != 11 {
		t.Fatalf("pending 6 > treeLen 5 should rebuild: treeLen = %d", d.treeLen)
	}
}

// TestBuildParallelIdentical requires the parallel build to produce a
// bit-identical tree (same index permutation, same node records) so
// planner output cannot depend on the build path.
func TestBuildParallelIdentical(t *testing.T) {
	r := rng.New(53)
	pts := randomPoints(r, 3*parallelCutoff, 3)
	seq := Build(pts)
	par := BuildParallel(pts, 4)
	if len(seq.index) != len(par.index) {
		t.Fatalf("index length mismatch: %d vs %d", len(seq.index), len(par.index))
	}
	for i := range seq.index {
		if seq.index[i] != par.index[i] {
			t.Fatalf("index[%d]: %d vs %d", i, seq.index[i], par.index[i])
		}
		if seq.nodes[i] != par.nodes[i] {
			t.Fatalf("nodes[%d]: %+v vs %+v", i, seq.nodes[i], par.nodes[i])
		}
	}
	// And the queries agree with brute force.
	var sc QueryScratch
	for trial := 0; trial < 20; trial++ {
		q := randomPoints(r, 1, 3)[0]
		got, _ := par.NearestInto(&sc, q, 7, -1, nil)
		resultsEqual(t, "parallel-query", got, BruteNearest(pts, q, 7))
	}
}

// TestResetReusesStorage verifies the in-place rebuild path keeps
// answering correctly when the tree shrinks and regrows.
func TestResetReusesStorage(t *testing.T) {
	r := rng.New(59)
	var tree KDTree
	var sc QueryScratch
	for _, n := range []int{100, 10, 250, 1, 77} {
		pts := randomPoints(r, n, 2)
		tree.Reset(pts)
		q := randomPoints(r, 1, 2)[0]
		got, _ := tree.NearestInto(&sc, q, 5, -1, nil)
		resultsEqual(t, "reset", got, BruteNearest(pts, q, 5))
	}
}

// TestScratchKernelsAllocFree pins the steady-state allocation contract
// of the pooled query kernels and of the in-place rebuild at 20 000
// points, the size of a serving tenant's roadmap.
func TestScratchKernelsAllocFree(t *testing.T) {
	r := rng.New(19)
	pts := randomPoints(r, 20000, 3)
	qs := randomPoints(r, 64, 3)
	tree := Build(pts)
	d := NewDynamic()
	for _, p := range pts {
		d.Add(p)
	}
	parts := make([][]geom.Vec, 64)
	for i := range parts {
		parts[i] = pts[i*len(pts)/64 : (i+1)*len(pts)/64]
	}
	forest, _ := forestOf(parts)
	var sc QueryScratch
	var dst []Result
	kernels := map[string]func(i int){
		"KDTree.NearestInto":  func(i int) { dst, _ = tree.NearestInto(&sc, qs[i%len(qs)], 8, -1, dst[:0]) },
		"Dynamic.NearestInto": func(i int) { dst, _ = d.NearestInto(&sc, qs[i%len(qs)], 8, dst[:0]) },
		"Forest.NearestInto":  func(i int) { dst, _ = forest.NearestInto(&sc, qs[i%len(qs)], 8, -1, dst[:0]) },
		"Forest.RadiusInto":   func(i int) { dst, _ = forest.RadiusInto(&sc, qs[i%len(qs)], 0.05, dst[:0]) },
		"KDTree.Reset":        func(int) { tree.Reset(pts) },
	}
	for name, k := range kernels {
		k(0) // warm the buffers
		i := 0
		if allocs := testing.AllocsPerRun(5, func() { k(i); i++ }); allocs != 0 {
			t.Errorf("%s allocates %v per op in steady state, want 0", name, allocs)
		}
	}
}

// TestRadiusIntoMatchesBrute cross-validates the scratch radius query.
func TestRadiusIntoMatchesBrute(t *testing.T) {
	r := rng.New(61)
	var sc QueryScratch
	var dst []Result
	for trial := 0; trial < 60; trial++ {
		pts := randomPoints(r, 1+r.Intn(120), 3)
		tree := Build(pts)
		q := randomPoints(r, 1, 3)[0]
		radius := r.Float64()
		dst, _ = tree.RadiusInto(&sc, q, radius, dst[:0])
		resultsEqual(t, "radius", dst, BruteRadiusInto(pts, q, radius, nil))
	}
}

// FuzzNearestInto drives the scratch query with fuzzer-chosen geometry,
// asserting exact agreement with brute force.
func FuzzNearestInto(f *testing.F) {
	f.Add(uint64(1), 10, 3)
	f.Add(uint64(99), 1, 1)
	f.Add(uint64(7), 200, 12)
	f.Fuzz(func(t *testing.T, seed uint64, n, k int) {
		if n <= 0 || n > 500 || k <= 0 || k > 50 {
			t.Skip()
		}
		r := rng.New(seed)
		pts := randomPoints(r, n, 2+int(seed%3))
		tree := Build(pts)
		var sc QueryScratch
		q := randomPoints(r, 1, 2+int(seed%3))[0]
		got, _ := tree.NearestInto(&sc, q, k, -1, nil)
		want := BruteNearest(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// BenchmarkKernelBuildParallel measures the concurrent build of a
// large-region tree.
func BenchmarkKernelBuildParallel(b *testing.B) {
	r := rng.New(23)
	pts := randomPoints(r, 20000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildParallel(pts, 0)
	}
}

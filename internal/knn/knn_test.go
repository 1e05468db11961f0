package knn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

func randomPoints(r *rng.Stream, n, d int) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		p := make(geom.Vec, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestKDTreeMatchesBrute(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 40; trial++ {
		d := 2 + r.Intn(4)
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(10)
		pts := randomPoints(r, n, d)
		tree := Build(pts)
		q := randomPoints(r, 1, d)[0]
		got, _ := tree.Nearest(q, k)
		want := BruteNearest(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Indices may differ under distance ties; distances must match.
			if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
				t.Fatalf("trial %d rank %d: dist2 %v != %v", trial, i, got[i].Dist2, want[i].Dist2)
			}
		}
	}
}

func TestKDTreeSortedOutput(t *testing.T) {
	r := rng.New(2)
	pts := randomPoints(r, 500, 3)
	tree := Build(pts)
	q := geom.V(0.5, 0.5, 0.5)
	res, _ := tree.Nearest(q, 20)
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Dist2 < res[j].Dist2 }) {
		t.Fatal("results not sorted by distance")
	}
}

func TestKDTreeKLargerThanN(t *testing.T) {
	r := rng.New(3)
	pts := randomPoints(r, 5, 2)
	tree := Build(pts)
	res, _ := tree.Nearest(geom.V(0, 0), 50)
	if len(res) != 5 {
		t.Fatalf("got %d results, want all 5", len(res))
	}
}

func TestKDTreeEmptyAndZeroK(t *testing.T) {
	tree := Build(nil)
	if res, _ := tree.Nearest(geom.V(0, 0), 3); res != nil {
		t.Fatal("empty tree should return nil")
	}
	tree = Build([]geom.Vec{geom.V(1, 1)})
	if res, _ := tree.Nearest(geom.V(0, 0), 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
	if tree.Len() != 1 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestKDTreeExactPointFound(t *testing.T) {
	r := rng.New(4)
	pts := randomPoints(r, 100, 3)
	tree := Build(pts)
	for i, p := range pts {
		res, _ := tree.Nearest(p, 1)
		if len(res) != 1 || res[0].Dist2 > 1e-15 {
			t.Fatalf("query of existing point %d returned %v", i, res)
		}
	}
}

func TestNearestExcludingSelf(t *testing.T) {
	r := rng.New(5)
	pts := randomPoints(r, 50, 2)
	tree := Build(pts)
	for i, p := range pts {
		var sc QueryScratch
		res, _ := tree.NearestInto(&sc, p, 3, i, nil)
		for _, rr := range res {
			if rr.Index == i {
				t.Fatalf("excluded index %d returned", i)
			}
		}
		want, _ := BruteNearestInto(new(QueryScratch), pts, p, 3, i, nil)
		if len(res) != len(want) {
			t.Fatalf("point %d: got %d, want %d", i, len(res), len(want))
		}
		for j := range res {
			if math.Abs(res[j].Dist2-want[j].Dist2) > 1e-12 {
				t.Fatalf("point %d rank %d: %v != %v", i, j, res[j].Dist2, want[j].Dist2)
			}
		}
	}
}

func TestKDTreePropertyAgainstBrute(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pts := randomPoints(r, 1+r.Intn(100), 2)
		tree := Build(pts)
		q := geom.V(r.Float64(), r.Float64())
		got, _ := tree.Nearest(q, 5)
		want := BruteNearest(pts, q, 5)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalCountPositive(t *testing.T) {
	r := rng.New(6)
	pts := randomPoints(r, 1000, 3)
	tree := Build(pts)
	_, evals := tree.Nearest(geom.V(0.5, 0.5, 0.5), 5)
	if evals <= 0 || evals > 1000 {
		t.Fatalf("evals = %d", evals)
	}
}

func TestBruteDeterministicTieBreak(t *testing.T) {
	pts := []geom.Vec{geom.V(1, 0), geom.V(-1, 0), geom.V(0, 1)}
	res := BruteNearest(pts, geom.V(0, 0), 2)
	if res[0].Index != 0 || res[1].Index != 1 {
		t.Fatalf("tie-break order = %v", res)
	}
}

func BenchmarkKDTreeBuild1000(b *testing.B) {
	r := rng.New(1)
	pts := randomPoints(r, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

func BenchmarkKDTreeQuery1000(b *testing.B) {
	r := rng.New(1)
	pts := randomPoints(r, 1000, 3)
	tree := Build(pts)
	q := geom.V(0.5, 0.5, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(q, 10)
	}
}

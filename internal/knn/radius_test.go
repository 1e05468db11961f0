package knn

import (
	"math"
	"testing"
	"testing/quick"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

func TestRadiusMatchesBrute(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		pts := randomPoints(r, 1+r.Intn(300), 3)
		tree := Build(pts)
		q := geom.V(r.Float64(), r.Float64(), r.Float64())
		radius := r.Float64() * 0.5
		got, _ := tree.RadiusInto(new(QueryScratch), q, radius, nil)
		want := BruteRadiusInto(pts, q, radius, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
				t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRadiusEdgeCases(t *testing.T) {
	tree := Build(nil)
	if out, _ := tree.RadiusInto(new(QueryScratch), geom.V(0, 0), 1, nil); out != nil {
		t.Fatal("empty tree radius should be nil")
	}
	pts := []geom.Vec{geom.V(0, 0), geom.V(1, 0)}
	tree = Build(pts)
	if out, _ := tree.RadiusInto(new(QueryScratch), geom.V(0, 0), -1, nil); out != nil {
		t.Fatal("negative radius should be nil")
	}
	out, _ := tree.RadiusInto(new(QueryScratch), geom.V(0, 0), 0, nil)
	if len(out) != 1 || out[0].Index != 0 {
		t.Fatalf("zero radius should hit the exact point: %v", out)
	}
	out, _ = tree.RadiusInto(new(QueryScratch), geom.V(0.5, 0), 10, nil)
	if len(out) != 2 {
		t.Fatalf("large radius should hit all: %v", out)
	}
}

func TestRadiusSortedAscending(t *testing.T) {
	r := rng.New(12)
	pts := randomPoints(r, 500, 2)
	tree := Build(pts)
	out, _ := tree.RadiusInto(new(QueryScratch), geom.V(0.5, 0.5), 0.4, nil)
	for i := 1; i < len(out); i++ {
		if out[i].Dist2 < out[i-1].Dist2 {
			t.Fatal("radius results not sorted")
		}
	}
}

func TestRadiusProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pts := randomPoints(r, 1+r.Intn(100), 2)
		tree := Build(pts)
		q := geom.V(r.Float64(), r.Float64())
		radius := r.Float64() * 0.7
		got, _ := tree.RadiusInto(new(QueryScratch), q, radius, nil)
		// All hits within radius and every point within radius is a hit.
		hitSet := map[int]bool{}
		for _, h := range got {
			if h.Dist2 > radius*radius+1e-12 {
				return false
			}
			hitSet[h.Index] = true
		}
		for i, p := range pts {
			if q.Dist2(p) <= radius*radius && !hitSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

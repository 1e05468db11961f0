package repart

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/region"
	"parmp/internal/rng"
	"parmp/internal/work"
)

func grid4x4() *region.Graph {
	return region.MustUniformGrid(geom.Box2(0, 0, 1, 1), region.GridSpec{Cells: []int{4, 4}})
}

func TestGreedyLPTBalances(t *testing.T) {
	weights := []float64{10, 9, 8, 7, 1, 1, 1, 1}
	load := Loads(weights, GreedyLPT(weights, 2), 2)
	if math.Abs(load[0]-load[1]) > 1 {
		t.Fatalf("loads %v not balanced", load)
	}
}

func TestGreedyLPTAssignsAll(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		p := 1 + r.Intn(16)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() * 10
		}
		assign := GreedyLPT(w, p)
		if len(assign) != n {
			return false
		}
		for _, a := range assign {
			if a < 0 || a >= p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyLPTOptimalityBound(t *testing.T) {
	// LPT guarantee: makespan <= (4/3 - 1/(3p)) * OPT, and OPT >= total/p.
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(100)
		p := 2 + r.Intn(8)
		w := make([]float64, n)
		var total float64
		for i := range w {
			w[i] = r.Float64()*9 + 1
			total += w[i]
		}
		assign := GreedyLPT(w, p)
		load := make([]float64, p)
		var maxw float64
		for i, a := range assign {
			load[a] += w[i]
			if w[i] > maxw {
				maxw = w[i]
			}
		}
		var mk float64
		for _, l := range load {
			if l > mk {
				mk = l
			}
		}
		lower := math.Max(total/float64(p), maxw)
		if mk > lower*(4.0/3.0)+1e-9 {
			t.Fatalf("trial %d: LPT makespan %v exceeds 4/3 bound over %v", trial, mk, lower)
		}
	}
}

func TestGreedyLPTReducesCV(t *testing.T) {
	rg := grid4x4()
	// Imbalanced weights: first column heavy.
	w := make([]float64, 16)
	for i := range w {
		if i < 4 {
			w[i] = 10
		} else {
			w[i] = 1
		}
	}
	region.NaiveColumnPartition(rg, 4)
	naiveCV := CoefficientOfVariation(w, rg.Owner, 4)
	lptCV := CoefficientOfVariation(w, GreedyLPT(w, 4), 4)
	if lptCV >= naiveCV {
		t.Fatalf("LPT CV %v should beat naive %v", lptCV, naiveCV)
	}
}

func TestGreedySpatialBalancesAndKeepsLocality(t *testing.T) {
	rg := grid4x4()
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1
	}
	assign := GreedySpatial(rg, w, 4, 0.05)
	load := make([]float64, 4)
	for _, a := range assign {
		if a < 0 || a >= 4 {
			t.Fatalf("bad assignment %d", a)
		}
		load[a]++
	}
	for p, l := range load {
		if l != 4 {
			t.Fatalf("proc %d load %v, want 4", p, l)
		}
	}
	// Spatial preference: edge cut should be below the worst case and at
	// least as good as random scattering (which averages ~18 of 24).
	copy(rg.Owner, assign)
	if cut := rg.EdgeCut(); cut > 16 {
		t.Fatalf("spatial edge cut = %d, too fragmented", cut)
	}
}

func TestGreedySpatialVsLPTEdgeCut(t *testing.T) {
	rg := region.MustUniformGrid(geom.Box2(0, 0, 1, 1), region.GridSpec{Cells: []int{8, 8}})
	r := rng.New(5)
	w := make([]float64, 64)
	for i := range w {
		w[i] = 1 + r.Float64()
	}
	lpt := GreedyLPT(w, 8)
	spatial := GreedySpatial(rg, w, 8, 0.1)
	copy(rg.Owner, lpt)
	lptCut := rg.EdgeCut()
	copy(rg.Owner, spatial)
	spatialCut := rg.EdgeCut()
	if spatialCut >= lptCut {
		t.Fatalf("spatial cut %d should beat LPT cut %d", spatialCut, lptCut)
	}
	// Both should still balance reasonably.
	lptCV := CoefficientOfVariation(w, lpt, 8)
	spatialCV := CoefficientOfVariation(w, spatial, 8)
	if spatialCV > lptCV+0.35 {
		t.Fatalf("spatial CV %v too far above LPT CV %v", spatialCV, lptCV)
	}
}

func TestMakePlanAndApply(t *testing.T) {
	rg := grid4x4()
	region.NaiveColumnPartition(rg, 4)
	w := make([]float64, 16)
	for i := range w {
		w[i] = float64(i)
	}
	assign := GreedyLPT(w, 4)
	pl := MakePlan(rg, assign)
	if len(pl.Moved) == 0 {
		t.Fatal("plan should move something")
	}
	// MakePlan must not mutate ownership.
	for i := 0; i < 16; i++ {
		if rg.Owner[i] != i*4/16 {
			t.Fatal("MakePlan mutated ownership")
		}
	}
	pl.Apply(rg)
	for i := range assign {
		if rg.Owner[i] != assign[i] {
			t.Fatal("Apply did not install assignment")
		}
	}
}

func TestMigrationCost(t *testing.T) {
	rg := grid4x4()
	region.NaiveColumnPartition(rg, 2)
	assign := append([]int(nil), rg.Owner...)
	assign[0] = 1 // move one region
	pl := MakePlan(rg, assign)
	prof := work.MachineProfile{MigrateFixed: 10, MigratePerVertex: 2}
	payload := make([]int, 16)
	payload[0] = 5
	got := pl.MigrationCost(rg, prof, payload, 2)
	// One (src,dst) pair: batch fixed 10 + descriptor 1 + 2*5 payload.
	want := 10.0 + 1 + 2*5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MigrationCost = %v, want %v", got, want)
	}
	if got := pl.MigrationCost(rg, prof, nil, 2); got != 11 {
		t.Fatalf("nil payload should charge fixed+descriptor, got %v", got)
	}
	// Empty plan costs nothing.
	empty := MakePlan(rg, rg.Owner)
	if empty.MigrationCost(rg, prof, payload, 2) != 0 {
		t.Fatal("no-op plan should be free")
	}
}

func TestSampleCountWeights(t *testing.T) {
	w := SampleCountWeights([]int{3, 0, 7})
	if w[0] != 3 || w[1] != 0 || w[2] != 7 {
		t.Fatalf("weights = %v", w)
	}
}

func TestKRayWeightsFreeVsBlocked(t *testing.T) {
	e := env.MedCube()
	apex := geom.V(0.5, 0.5, 0.05) // below the central cube
	rg := region.RadialSubdivision(apex, region.RadialSpec{
		Regions: 16, K: 3, Radius: 0.9,
	}, rng.New(1))
	w := KRayWeights(e, rg, 32, 7)
	// Regions pointing up (into the obstacle) must score lower than
	// regions pointing down/outward.
	var up, down float64
	var nUp, nDown int
	for i := 0; i < rg.NumRegions(); i++ {
		ray := rg.Region(i).Ray
		if ray[1] > 0.5 { // y axis component
			up += w[i]
			nUp++
		} else if ray[1] < -0.5 {
			down += w[i]
			nDown++
		}
	}
	if nUp == 0 || nDown == 0 {
		t.Skip("direction buckets empty")
	}
	_ = up / float64(nUp)
	_ = down / float64(nDown)
	// All weights must be positive and bounded by the radius.
	for i, wi := range w {
		if wi <= 0 || wi > 0.9+1e-9 {
			t.Fatalf("weight %d = %v out of range", i, wi)
		}
	}
}

func TestKRayWeightsDeterministic(t *testing.T) {
	e := env.Mixed30()
	rg := region.RadialSubdivision(geom.V(0.5, 0.5, 0.5), region.RadialSpec{
		Regions: 8, K: 2, Radius: 0.5,
	}, rng.New(2))
	a := KRayWeights(e, rg, 16, 9)
	b := KRayWeights(e, rg, 16, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KRayWeights not deterministic")
		}
	}
}

// The naive column partition of a 2x2 grid gives processor 0 the first
// block of region IDs (0 and 1) and processor 1 the second (2 and 3).
func TestLoadsNaivePartition(t *testing.T) {
	rg := region.MustUniformGrid(geom.Box2(0, 0, 1, 1), region.GridSpec{Cells: []int{2, 2}})
	region.NaiveColumnPartition(rg, 2)
	if load := Loads([]float64{1, 2, 3, 4}, rg.Owner, 2); !slices.Equal(load, []float64{3, 7}) {
		t.Fatalf("load = %v, want [3 7]", load)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	// Perfect balance: CV = 0.
	if cv := CoefficientOfVariation([]float64{1, 1}, []int{0, 1}, 2); cv != 0 {
		t.Fatalf("balanced CV = %v", cv)
	}
	// All on one proc of two: loads (2, 0), mu=1, sigma=1 -> CV=1.
	if cv := CoefficientOfVariation([]float64{1, 1}, []int{0, 0}, 2); math.Abs(cv-1) > 1e-12 {
		t.Fatalf("concentrated CV = %v", cv)
	}
	// Zero weights: CV = 0 (no work, no imbalance).
	if cv := CoefficientOfVariation([]float64{0, 0}, []int{0, 1}, 2); cv != 0 {
		t.Fatalf("zero CV = %v", cv)
	}
}

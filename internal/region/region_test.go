package region

import (
	"math"
	"slices"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/rng"
)

func TestSplitEvenly(t *testing.T) {
	s := SplitEvenly(2, 16)
	if s.NumRegions() < 16 {
		t.Fatalf("NumRegions = %d", s.NumRegions())
	}
	if s.Cells[0] != 4 || s.Cells[1] != 4 {
		t.Fatalf("Cells = %v", s.Cells)
	}
	s = SplitEvenly(3, 100)
	if s.NumRegions() < 100 {
		t.Fatalf("3D NumRegions = %d", s.NumRegions())
	}
}

func TestUniformGridStructure(t *testing.T) {
	b := geom.Box2(0, 0, 1, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{4, 4}})
	if rg.NumRegions() != 16 {
		t.Fatalf("NumRegions = %d", rg.NumRegions())
	}
	// 2D grid adjacency: 2*4*3 = 24 edges.
	if rg.G.NumEdges() != 24 {
		t.Fatalf("NumEdges = %d", rg.G.NumEdges())
	}
	// Interior region has 4 neighbours, corner has 2.
	corner := rg.Region(0)
	if got := rg.G.Degree(graph.ID(corner.ID)); got != 2 {
		t.Fatalf("corner degree = %d", got)
	}
	// Region 5 is coordinate (1,1): interior.
	if got := rg.G.Degree(5); got != 4 {
		t.Fatalf("interior degree = %d", got)
	}
}

func TestUniformGridCellsTile(t *testing.T) {
	b := geom.Box2(0, 0, 2, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{4, 2}})
	var total float64
	for _, r := range rg.Regions() {
		total += r.Box.Volume()
	}
	if math.Abs(total-2) > 1e-12 {
		t.Fatalf("cells cover %v, want 2", total)
	}
	// Cells must be disjoint.
	regs := rg.Regions()
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			if regs[i].Box.IntersectionVolume(regs[j].Box) > 1e-12 {
				t.Fatalf("cells %d and %d overlap", i, j)
			}
		}
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	b := geom.Box3(0, 0, 0, 1, 1, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{3, 4, 5}})
	cells := []float64{3, 4, 5}
	for _, r := range rg.Regions() {
		// IDs are row-major over the cell coordinates read off Box.Lo.
		var c [3]int
		for i := range c {
			c[i] = int(math.Round(r.Box.Lo[i] * cells[i]))
		}
		id := (c[0]*4+c[1])*5 + c[2]
		if id != r.ID {
			t.Fatalf("coord %v does not encode id %d", c, r.ID)
		}
		if !r.Box.Contains(r.Box.Center()) {
			t.Fatal("cell center outside cell")
		}
	}
}

func TestNaiveColumnPartitionBalancedCounts(t *testing.T) {
	b := geom.Box2(0, 0, 1, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{8, 8}})
	NaiveColumnPartition(rg, 4)
	counts := make([]int, 4)
	for _, o := range rg.Owner {
		counts[o]++
	}
	for p, c := range counts {
		if c != 16 {
			t.Fatalf("proc %d owns %d regions, want 16", p, c)
		}
	}
	// Contiguity: region IDs per owner must be consecutive.
	for i := 1; i < len(rg.Owner); i++ {
		if rg.Owner[i] < rg.Owner[i-1] {
			t.Fatal("ownership not contiguous in ID order")
		}
	}
}

func TestEdgeCutChangesWithPartition(t *testing.T) {
	b := geom.Box2(0, 0, 1, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{4, 4}})
	NaiveColumnPartition(rg, 4)
	cut := rg.EdgeCut()
	// Column partition of a 4x4 grid with 4 procs: each proc owns one
	// column slab; cut = 3 boundaries * 4 edges = 12.
	if cut != 12 {
		t.Fatalf("column cut = %d, want 12", cut)
	}
	// Single owner: no cut.
	for i := range rg.Owner {
		rg.Owner[i] = 0
	}
	if rg.EdgeCut() != 0 {
		t.Fatal("single-owner cut should be 0")
	}
}

func TestSweepOrder(t *testing.T) {
	// Breadth first from region 0 in adjacency order (0's neighbours 3
	// then 1, before 3's neighbour 2), then each further component from
	// its lowest ID: the isolated 4, then 5-6.
	regions := make([]*Region, 7)
	for i := range regions {
		regions[i] = &Region{ID: i}
	}
	rg := newGraph(regions, [][2]int{{0, 3}, {0, 1}, {3, 2}, {1, 2}, {6, 5}})
	if got, want := rg.SweepOrder(), []int{0, 3, 1, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("SweepOrder = %v, want %v", got, want)
	}
}

func TestRadialSubdivision3D(t *testing.T) {
	apex := geom.V(0.5, 0.5, 0.5)
	r := rng.New(1)
	rg := RadialSubdivision(apex, RadialSpec{Regions: 32, K: 4, Radius: 0.5}, r)
	if rg.NumRegions() != 32 {
		t.Fatalf("NumRegions = %d", rg.NumRegions())
	}
	for _, reg := range rg.Regions() {
		if math.Abs(reg.Ray.Norm()-1) > 1e-9 {
			t.Fatalf("ray not unit: %v", reg.Ray)
		}
		if reg.HalfAngle <= 0 || reg.HalfAngle > math.Pi {
			t.Fatalf("half angle = %v", reg.HalfAngle)
		}
		if deg := rg.G.Degree(graph.ID(reg.ID)); deg < 4 {
			// Undirected kNN edges: degree >= K is expected (mutual hits
			// dedupe, others add).
			t.Fatalf("region %d degree %d < K", reg.ID, deg)
		}
	}
}

func TestRadialSubdivision2D(t *testing.T) {
	apex := geom.V(0, 0)
	r := rng.New(2)
	rg := RadialSubdivision(apex, RadialSpec{Regions: 8, K: 2, Radius: 1}, r)
	if rg.NumRegions() != 8 {
		t.Fatalf("NumRegions = %d", rg.NumRegions())
	}
	// Each cone's half-angle is the angle to its nearest neighbouring ray.
	regs := rg.Regions()
	for _, reg := range regs {
		want := math.Pi
		for _, o := range regs {
			if o != reg {
				want = min(want, geom.AngleBetween(reg.Ray, o.Ray))
			}
		}
		if math.Abs(reg.HalfAngle-want) > 1e-9 {
			t.Fatalf("region %d half angle = %v, want %v", reg.ID, reg.HalfAngle, want)
		}
	}
}

func TestInCone(t *testing.T) {
	reg := &Region{
		Kind: KindCone, Ray: geom.V(1, 0), Apex: geom.V(0, 0),
		Radius: 1, HalfAngle: math.Pi / 4,
	}
	if !InCone(reg, geom.V(0.5, 0)) {
		t.Fatal("axis point should be in cone")
	}
	if !InCone(reg, geom.V(0.5, 0.3)) {
		t.Fatal("point within half-angle should be in cone")
	}
	if InCone(reg, geom.V(0.1, 0.5)) {
		t.Fatal("point beyond half-angle should be out")
	}
	if InCone(reg, geom.V(2, 0)) {
		t.Fatal("point beyond radius should be out")
	}
	if !InCone(reg, geom.V(0, 0)) {
		t.Fatal("apex should be in cone")
	}
}

func TestConeTarget(t *testing.T) {
	reg := &Region{Ray: geom.V(0, 1), Apex: geom.V(1, 1), Radius: 2}
	if got := ConeTarget(reg); !got.Equal(geom.V(1, 3), 1e-12) {
		t.Fatalf("ConeTarget = %v", got)
	}
}

func TestSampleInConeStaysInCone(t *testing.T) {
	r := rng.New(3)
	reg := &Region{
		Kind: KindCone, Ray: geom.V(0, 0, 1).Unit(), Apex: geom.V(0.5, 0.5, 0.5),
		Radius: 0.4, HalfAngle: 0.5,
	}
	for i := 0; i < 500; i++ {
		p := SampleInConeInto(nil, reg, r)
		if p.Dist(reg.Apex) > reg.Radius+1e-9 {
			t.Fatalf("sample %v beyond radius", p)
		}
		if v := p.Sub(reg.Apex); v.Norm() > 1e-9 && geom.AngleBetween(v, reg.Ray) > reg.HalfAngle+1e-6 {
			t.Fatalf("sample %v outside cone angle", p)
		}
	}
}

func TestRadialRandomDirections(t *testing.T) {
	apex := geom.V(0, 0, 0)
	rg := RadialSubdivision(apex, RadialSpec{Regions: 16, K: 3, Radius: 1}, rng.New(9))
	seen := map[string]bool{}
	for _, reg := range rg.Regions() {
		key := reg.Ray.String()
		if seen[key] {
			t.Fatal("duplicate random direction")
		}
		seen[key] = true
	}
}

func TestRegionString(t *testing.T) {
	b := geom.Box2(0, 0, 1, 1)
	rg := MustUniformGrid(b, GridSpec{Cells: []int{2, 2}})
	if rg.Region(0).String() == "" {
		t.Fatal("empty String")
	}
	cone := &Region{Kind: KindCone, Ray: geom.V(1, 0)}
	if cone.String() == "" {
		t.Fatal("empty cone String")
	}
}

func TestUniformGridErrorsOnBadSpec(t *testing.T) {
	if _, err := UniformGrid(geom.Box2(0, 0, 1, 1), GridSpec{Cells: []int{2, 2, 2}}); err == nil {
		t.Fatal("expected error for dims > bounds dim")
	}
	if _, err := UniformGrid(geom.Box2(0, 0, 1, 1), GridSpec{}); err == nil {
		t.Fatal("expected error for empty spec")
	}
	if _, err := UniformGrid(geom.Box2(0, 0, 1, 1), GridSpec{Cells: []int{2, 0}}); err == nil {
		t.Fatal("expected error for zero cell count")
	}
	if _, err := UniformGrid(geom.Box2(0, 0, 1, 1), GridSpec{Cells: []int{2, -1}}); err == nil {
		t.Fatal("expected error for negative cell count")
	}
}

func TestMustUniformGridPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must variant should panic on invalid spec")
		}
	}()
	MustUniformGrid(geom.Box2(0, 0, 1, 1), GridSpec{Cells: []int{2, 2, 2}})
}

func TestGridSpecNumRegions(t *testing.T) {
	if (GridSpec{Cells: []int{3, 4, 5}}).NumRegions() != 60 {
		t.Fatal("NumRegions wrong")
	}
	if (GridSpec{}).NumRegions() != 1 {
		t.Fatal("empty spec should be 1")
	}
}

package graph

import (
	"fmt"
	"testing"

	"parmp/internal/rng"
)

// randomSpans draws spans over n vertices laid out as `blocks`
// consecutive id blocks: block-local spans and cross-block spans, with
// self edges and repeated pairs (in both orientations) mixed in.
func randomSpans(r *rng.Stream, n, blocks, edges int) []EdgeSpan {
	size := n / blocks
	var spans []EdgeSpan
	for len(spans) < 2*blocks {
		a, b := r.Intn(blocks), r.Intn(blocks)
		if len(spans) < blocks {
			b = a // local span
		}
		sp := EdgeSpan{BaseA: ID(a * size), BaseB: ID(b * size)}
		for k := 0; k < edges; k++ {
			ed := [2]int{r.Intn(size), r.Intn(size)}
			switch {
			case k > 0 && r.Intn(5) == 0:
				ed = sp.Ends[r.Intn(k)] // duplicate
			case a == b && r.Intn(7) == 0:
				ed[1] = ed[0] // self edge
			}
			sp.Ends = append(sp.Ends, ed)
			sp.Weights = append(sp.Weights, r.Float64())
		}
		spans = append(spans, sp)
	}
	return spans
}

// replay is the reference: the graph AddVertex / AddEdge build from the
// same vertices and spans.
func replay(n int, spans []EdgeSpan) *Graph[int] {
	g := New[int](n)
	for v := 0; v < n; v++ {
		g.AddVertex(v)
	}
	for _, sp := range spans {
		for k, ed := range sp.Ends {
			g.AddEdge(sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]), sp.Weights[k])
		}
	}
	return g
}

func identity(n int) []int {
	verts := make([]int, n)
	for v := range verts {
		verts[v] = v
	}
	return verts
}

func sameGraph(t *testing.T, ctx string, got, want *Graph[int]) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %v, want %v", ctx, got, want)
	}
	for v := 0; v < want.NumVertices(); v++ {
		if got.Vertex(ID(v)) != want.Vertex(ID(v)) {
			t.Fatalf("%s: vertex %d payload differs", ctx, v)
		}
		if g, w := fmt.Sprint(got.Neighbors(ID(v))), fmt.Sprint(want.Neighbors(ID(v))); g != w {
			t.Fatalf("%s: row %d = %s, want %s", ctx, v, g, w)
		}
	}
	var gs, ws []string
	got.ForEachEdge(func(a, b ID, w float64) { gs = append(gs, fmt.Sprint(a, b, w)) })
	want.ForEachEdge(func(a, b ID, w float64) { ws = append(ws, fmt.Sprint(a, b, w)) })
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("%s: ForEachEdge sequences differ", ctx)
	}
}

// TestBulkBuildMatchesAddEdgeReplay is FromSpans' contract: same rows in
// the same order with the same weights, same edge count, self and
// duplicate edges dropped the way AddEdge drops them.
func TestBulkBuildMatchesAddEdgeReplay(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		blocks := 1 + r.Intn(6)
		n := blocks * (1 + r.Intn(30))
		spans := randomSpans(r, n, blocks, r.Intn(60))
		sameGraph(t, fmt.Sprint("seed ", seed), FromSpans(identity(n), spans), replay(n, spans))
	}
	empty := FromSpans[int](nil, nil)
	if empty.NumVertices() != 0 || empty.NumEdges() != 0 {
		t.Fatalf("empty build: %v", empty)
	}
}

// A bulk build is a fixed number of allocations whatever the graph's
// size: degree counts, slab, row headers and the graph — none per row.
func TestBulkBuildAllocsIndependentOfSize(t *testing.T) {
	r := rng.New(79)
	for _, n := range []int{1500, 6000} {
		verts, spans := identity(n), randomSpans(r, n, 4, n)
		if allocs := testing.AllocsPerRun(5, func() { FromSpans(verts, spans) }); allocs > 4 {
			t.Errorf("%d vertices: FromSpans %v allocations, want at most 4", n, allocs)
		}
	}
}

// TestBulkBuiltRowsDoNotBleed runs what the reference prm.Query does to
// a published roadmap — attach two transient vertices with AddEdge, then
// RemoveLastVertex them — on a bulk-built graph. Rows share one slab, so
// an append that grew a row in place would overwrite its neighbour.
func TestBulkBuiltRowsDoNotBleed(t *testing.T) {
	r := rng.New(77)
	const n, blocks = 120, 4
	spans := randomSpans(r, n, blocks, 80)
	g, want := FromSpans(identity(n), spans), replay(n, spans)
	for v := 0; v < n; v++ {
		if row := g.Neighbors(ID(v)); cap(row) != len(row) {
			t.Fatalf("row %d: cap %d != len %d", v, cap(row), len(row))
		}
	}
	for trial := 0; trial < 20; trial++ {
		for _, h := range []*Graph[int]{g, want} {
			a, b := h.AddVertex(-1), h.AddVertex(-2)
			for k := 0; k < 12; k++ {
				h.AddEdge(a, ID((7*trial+11*k)%n), 1)
				h.AddEdge(b, ID((5*trial+13*k)%n), 2)
			}
		}
		sameGraph(t, fmt.Sprint("attached, trial ", trial), g, want)
		for _, h := range []*Graph[int]{g, want} {
			h.RemoveLastVertex()
			h.RemoveLastVertex()
		}
		sameGraph(t, fmt.Sprint("detached, trial ", trial), g, want)
	}
	sameGraph(t, "against a fresh build", g, FromSpans(identity(n), spans))
}

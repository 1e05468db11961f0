package graph

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
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

func identity(n int) []int {
	verts := make([]int, n)
	for v := range verts {
		verts[v] = v
	}
	return verts
}

// sameGraph holds a bulk-built graph to the replay reference: every row
// in order (targets and weights), the edge count and ForEachEdge's
// sequence.
func sameGraph(t *testing.T, ctx string, got *Graph[int], want *adjList) {
	t.Helper()
	if got.NumVertices() != len(want.rows) || got.NumEdges() != want.edges {
		t.Fatalf("%s: %v, want V=%d E=%d", ctx, got, len(want.rows), want.edges)
	}
	for v, row := range want.rows {
		if got.Vertex(ID(v)) != v {
			t.Fatalf("%s: vertex %d payload differs", ctx, v)
		}
		to, w := got.Neighbors(ID(v))
		if len(to) != len(row) || len(w) != len(row) {
			t.Fatalf("%s: row %d has %d targets and %d weights, want %d", ctx, v, len(to), len(w), len(row))
		}
		for i, e := range row {
			if to[i] != e.to || w[i] != e.w {
				t.Fatalf("%s: row %d entry %d = %d/%v, want %d/%v", ctx, v, i, to[i], w[i], e.to, e.w)
			}
		}
	}
	var gs, ws []string
	got.ForEachEdge(func(a, b ID, w float64) { gs = append(gs, fmt.Sprint(a, b, w)) })
	want.forEachEdge(func(a, b ID, w float64) { ws = append(ws, fmt.Sprint(a, b, w)) })
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("%s: ForEachEdge sequences differ", ctx)
	}
}

// TestBulkBuildMatchesAddEdgeReplay is FromSpans' contract: the rows the
// adjacency-list replay builds, in the same order with the same weights,
// the same edge count, self and duplicate edges dropped the way its
// addEdge drops them.
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
// size: offsets (with the duplicate bits), targets, weights and the
// graph — none per row.
func TestBulkBuildAllocsIndependentOfSize(t *testing.T) {
	// The process's first collection starts the collector's worker
	// goroutines, and their records count as allocations: have it now,
	// not inside the measured calls.
	runtime.GC()
	r := rng.New(79)
	for _, n := range []int{1500, 6000} {
		verts, spans := identity(n), randomSpans(r, n, 4, n)
		if allocs := testing.AllocsPerRun(5, func() { FromSpans(verts, spans) }); allocs > 4 {
			t.Errorf("%d vertices: FromSpans %v allocations, want at most 4", n, allocs)
		}
	}
}

// spansFromBytes decodes a fuzz input into a vertex count and spans.
// data[0] sets the count (0–31). After it, 0xff opens a span whose bases
// are the next two bytes modulo the count, and any other byte pair is an
// edge of the open span (one at bases 0, 0 if none is open yet), each end
// taken modulo the room its block leaves. Edge k of span s weighs
// s + k/256, so which duplicate a row kept shows in its weight.
func spansFromBytes(data []byte) (int, []EdgeSpan) {
	if len(data) == 0 || data[0]%32 == 0 {
		return 0, nil
	}
	n := int(data[0] % 32)
	var spans []EdgeSpan
	for i := 1; i < len(data); {
		switch {
		case data[i] == 0xff && i+2 < len(data):
			spans = append(spans, EdgeSpan{BaseA: ID(int(data[i+1]) % n), BaseB: ID(int(data[i+2]) % n)})
			i += 3
		case len(spans) == 0:
			spans = append(spans, EdgeSpan{})
		case i+1 < len(data):
			sp := &spans[len(spans)-1]
			ed := [2]int{int(data[i]) % (n - int(sp.BaseA)), int(data[i+1]) % (n - int(sp.BaseB))}
			sp.Weights = append(sp.Weights, float64(len(spans)-1)+float64(len(sp.Ends))/256)
			sp.Ends = append(sp.Ends, ed)
			i += 2
		default:
			i++
		}
	}
	return n, spans
}

// FuzzFromSpansMatchesReplay holds FromSpans to the replay reference on
// raw span layouts; the checked-in corpus covers self edges, pairs
// repeated in both orientations, empty spans and empty rows.
func FuzzFromSpansMatchesReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, spans := spansFromBytes(data)
		sameGraph(t, fmt.Sprintf("%q", data), FromSpans(identity(n), spans), replay(n, spans))
	})
}

// FromSpans refuses, before allocating, a graph whose entry count
// exceeds the int32 limit: one shared Ends slice of self edges over one
// vertex reaches it cheaply, and costs seconds, not memory, should the
// check ever go. (The vertex count shares the check; reaching it would
// allocate gigabytes of offsets if the check went.)
func TestFromSpansPanicsPastInt32(t *testing.T) {
	ends := make([][2]int, 1<<16)
	spans := make([]EdgeSpan, 1<<15+1)
	for i := range spans {
		spans[i] = EdgeSpan{Ends: ends}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprint(math.MaxInt32)) {
			t.Fatalf("panic %q does not name the limit", msg)
		}
	}()
	FromSpans(make([]struct{}, 1), spans)
}

// A RowBuilder fed a graph's rows in id order builds that graph, in a
// fixed number of allocations (offsets, targets, weights, the builder),
// and refuses a short or overlong fill.
func TestRowBuilderCopiesRows(t *testing.T) {
	runtime.GC()
	r := rng.New(83)
	if got, want := NewRowBuilder[int](nil, 0).Graph(), FromSpans[int](nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty graph %#v, FromSpans %#v", got, want)
	}
	for _, n := range []int{1500, 6000} {
		want := FromSpans(identity(n), randomSpans(r, n, 4, n))
		copyRows := func() *Graph[int] {
			b := NewRowBuilder(want.Vertices(), len(want.to))
			for v := 0; v < n; v++ {
				to, w := want.Neighbors(ID(v))
				for k, u := range to {
					b.Add(u, w[k])
				}
				b.EndRow()
			}
			return b.Graph()
		}
		if got := copyRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d vertices: copied rows differ", n)
		}
		if allocs := testing.AllocsPerRun(5, func() { copyRows() }); allocs > 4 {
			t.Errorf("%d vertices: %v allocations, want at most 4", n, allocs)
		}
	}
	for _, fill := range []func(b *RowBuilder[int]){
		func(b *RowBuilder[int]) { b.EndRow() },                          // one row of two left open
		func(b *RowBuilder[int]) { b.Add(1, 1); b.EndRow(); b.EndRow() }, // one entry short
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Graph accepted an incomplete fill")
				}
			}()
			b := NewRowBuilder(identity(2), 2)
			fill(b)
			b.Graph()
		}()
	}
}

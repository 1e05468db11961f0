package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parmp/internal/rng"
)

// fromEdges builds vertices 0..n-1 (payload = id) and the given
// unit-weight edges, in order.
func fromEdges(n int, edges ...[2]int) *Graph[int] {
	w := make([]float64, len(edges))
	for i := range w {
		w[i] = 1
	}
	return FromSpans(identity(n), []EdgeSpan{{Ends: edges, Weights: w}})
}

func buildPath(n int) *Graph[int] {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return fromEdges(n, edges...)
}

func hasEdge[V any](g *Graph[V], a, b ID) bool {
	to, _ := g.Neighbors(a)
	return slices.Contains(to, b)
}

func TestFromSpansDropsSelfAndRepeatedEdges(t *testing.T) {
	g := FromSpans([]string{"a", "b"}, []EdgeSpan{{
		Ends:    [][2]int{{0, 1}, {1, 0}, {0, 0}},
		Weights: []float64{2.5, 1, 1},
	}})
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for _, v := range []ID{0, 1} {
		to, w := g.Neighbors(v)
		if len(to) != 1 || to[0] != 1-v || w[0] != 2.5 {
			t.Fatalf("row %d = %v %v, want the first edge only", v, to, w)
		}
	}
	if g.Vertex(0) != "a" {
		t.Fatalf("Vertex = %q", g.Vertex(0))
	}
}

func TestForEachEdgeVisitsOnce(t *testing.T) {
	g := buildPath(5)
	count := 0
	g.ForEachEdge(func(a, b ID, w float64) {
		if a >= b {
			t.Fatalf("edge order violated: %d >= %d", a, b)
		}
		count++
	})
	if count != 4 {
		t.Fatalf("visited %d edges, want 4", count)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := fromEdges(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 4})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestShortestPathSimple(t *testing.T) {
	g := FromSpans(identity(4), []EdgeSpan{{
		Ends:    [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}},
		Weights: []float64{1, 1, 5, 1},
	}})
	path, dist, ok := g.ShortestPath(0, 3)
	if !ok || dist != 2 {
		t.Fatalf("dist = %v ok = %v", dist, ok)
	}
	want := []ID{0, 1, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := fromEdges(2)
	if _, _, ok := g.ShortestPath(0, 1); ok {
		t.Fatal("disconnected vertices should be unreachable")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := buildPath(3)
	path, dist, ok := g.ShortestPath(1, 1)
	if !ok || dist != 0 || len(path) != 1 || path[0] != 1 {
		t.Fatalf("self path = %v dist=%v ok=%v", path, dist, ok)
	}
}

func TestShortestPathMatchesBFSOnUnitWeights(t *testing.T) {
	// Property: on random unit-weight graphs Dijkstra distance equals
	// BFS hop count.
	r := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(30)
		edges := make([][2]int, n*2)
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
		}
		g := fromEdges(n, edges...)
		src, dst := ID(r.Intn(n)), ID(r.Intn(n))
		// BFS hop count.
		hops := map[ID]int{src: 0}
		queue := []ID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			to, _ := g.Neighbors(cur)
			for _, u := range to {
				if _, seen := hops[u]; !seen {
					hops[u] = hops[cur] + 1
					queue = append(queue, u)
				}
			}
		}
		path, dist, ok := g.ShortestPath(src, dst)
		hop, reach := hops[dst]
		if ok != reach {
			t.Fatalf("trial %d: reachability mismatch", trial)
		}
		if ok {
			if math.Abs(dist-float64(hop)) > 1e-9 {
				t.Fatalf("trial %d: dist %v != hops %d", trial, dist, hop)
			}
			if len(path) != hop+1 {
				t.Fatalf("trial %d: path len %d != hops+1 %d", trial, len(path), hop+1)
			}
			// Path must be a chain of existing edges.
			for i := 0; i+1 < len(path); i++ {
				if !hasEdge(g, path[i], path[i+1]) {
					t.Fatalf("trial %d: path uses missing edge", trial)
				}
			}
		}
	}
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if u.Len() != 5 {
		t.Fatalf("init len=%d", u.Len())
	}
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("unions should merge")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union should report false")
	}
	if u.Find(0) != u.Find(2) || u.Find(0) == u.Find(3) {
		t.Fatal("connectivity wrong")
	}
}

func TestUnionFindGrow(t *testing.T) {
	u := NewUnionFind(2)
	first := u.Grow(3)
	if first != 2 || u.Len() != 5 {
		t.Fatalf("grow: first=%d len=%d", first, u.Len())
	}
	u.Union(0, 4)
	if u.Find(4) != u.Find(0) {
		t.Fatal("grown element should union")
	}
}

func TestUnionFindMatchesComponents(t *testing.T) {
	// Property: union-find connectivity agrees with graph components for
	// random edge sets.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		u := NewUnionFind(n)
		edges := make([][2]int, n)
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
			u.Union(edges[i][0], edges[i][1])
		}
		g := fromEdges(n, edges...)
		labels, _ := g.ConnectedComponents()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (labels[i] == labels[j]) != (u.Find(i) == u.Find(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphString(t *testing.T) {
	if buildPath(3).String() != "graph{V=3, E=2}" {
		t.Fatalf("String = %q", buildPath(3).String())
	}
}

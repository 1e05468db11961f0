package graph

import (
	"math"
	"testing"
	"testing/quick"

	"parmp/internal/rng"
)

func buildPath(n int) *Graph[int] {
	g := New[int](n)
	for i := 0; i < n; i++ {
		g.AddVertex(i)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ID(i), ID(i+1), 1)
	}
	return g
}

func TestAddVertexEdge(t *testing.T) {
	g := New[string](0)
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if !g.AddEdge(a, b, 2.5) {
		t.Fatal("AddEdge failed")
	}
	if g.AddEdge(a, b, 1) {
		t.Fatal("duplicate edge accepted")
	}
	if g.AddEdge(a, a, 1) {
		t.Fatal("self edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(b, a) {
		t.Fatal("undirected edge missing reverse direction")
	}
	if g.Vertex(a) != "a" {
		t.Fatalf("Vertex = %q", g.Vertex(a))
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatal("degrees wrong")
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
	g := New[int](6)
	for i := 0; i < 6; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestShortestPathSimple(t *testing.T) {
	g := New[int](4)
	for i := 0; i < 4; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
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
	g := New[int](2)
	g.AddVertex(0)
	g.AddVertex(1)
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
		g := New[int](n)
		for i := 0; i < n; i++ {
			g.AddVertex(i)
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(ID(r.Intn(n)), ID(r.Intn(n)), 1)
		}
		src, dst := ID(r.Intn(n)), ID(r.Intn(n))
		// BFS hop count.
		hops := map[ID]int{src: 0}
		queue := []ID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range g.Neighbors(cur) {
				if _, seen := hops[e.To]; !seen {
					hops[e.To] = hops[cur] + 1
					queue = append(queue, e.To)
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
				if !g.HasEdge(path[i], path[i+1]) {
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
		g := New[int](n)
		u := NewUnionFind(n)
		for i := 0; i < n; i++ {
			g.AddVertex(i)
		}
		for i := 0; i < n; i++ {
			a, b := ID(r.Intn(n)), ID(r.Intn(n))
			g.AddEdge(a, b, 1)
			if a != b {
				u.Union(int(a), int(b))
			}
		}
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

func TestRemoveLastVertex(t *testing.T) {
	g := New[int](4)
	for i := 0; i < 4; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 1, 1)
	g.RemoveLastVertex()
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want only 0-1", g.NumEdges())
	}
	if g.HasEdge(0, 3) || g.HasEdge(1, 3) {
		t.Fatal("edges to removed vertex must be gone")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("unrelated edge must survive")
	}
	// Removing an isolated vertex works too.
	g.AddVertex(9)
	g.RemoveLastVertex()
	if g.NumVertices() != 3 {
		t.Fatal("isolated removal failed")
	}
}

func TestRemoveLastVertexPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int](0).RemoveLastVertex()
}

package prm

import (
	"strings"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/graph"
)

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(&Roadmap{G: graph.New[Node](0)})
	if s.Nodes != 0 || s.Components != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestComputeStats(t *testing.T) {
	m := &Roadmap{G: graph.New[Node](0)}
	a := m.G.AddVertex(Node{Q: geom.V(0, 0)})
	b := m.G.AddVertex(Node{Q: geom.V(1, 0)})
	c := m.G.AddVertex(Node{Q: geom.V(2, 0)})
	m.G.AddVertex(Node{Q: geom.V(9, 9)}) // isolated
	m.G.AddEdge(a, b, 1)
	m.G.AddEdge(b, c, 1)
	s := ComputeStats(m)
	if s.Nodes != 4 || s.Edges != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 2 || s.LargestComponent != 3 {
		t.Fatalf("components = %+v", s)
	}
	if s.IsolatedNodes != 1 {
		t.Fatalf("isolated = %d", s.IsolatedNodes)
	}
	if s.AvgDegree != 1 {
		t.Fatalf("avg degree = %v", s.AvgDegree)
	}
	if !strings.Contains(s.String(), "components=2") {
		t.Fatal("String missing fields")
	}
}

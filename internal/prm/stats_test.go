package prm

import (
	"strings"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/graph"
)

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(roadmapOf(nil, nil, nil))
	if s.Nodes != 0 || s.Components != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestComputeStats(t *testing.T) {
	nodes := []Node{{Q: geom.V(0, 0)}, {Q: geom.V(1, 0)}, {Q: geom.V(2, 0)}, {Q: geom.V(9, 9)}} // the last isolated
	m := &Roadmap{G: graph.FromSpans(nodes, []graph.EdgeSpan{{Ends: [][2]int{{0, 1}, {1, 2}}, Weights: []float64{1, 1}}})}
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

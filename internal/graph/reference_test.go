package graph

// adjList is the adjacency-list graph FromSpans replaced, kept as its
// replay reference: one growable row per vertex, and an addEdge that
// appends an undirected edge to both rows unless it is a self edge or
// the pair is already joined.
type adjList struct {
	rows  [][]refEntry
	edges int
}

type refEntry struct {
	to ID
	w  float64
}

func (g *adjList) hasEdge(a, b ID) bool {
	for _, e := range g.rows[a] {
		if e.to == b {
			return true
		}
	}
	return false
}

func (g *adjList) addEdge(a, b ID, w float64) {
	if a == b || g.hasEdge(a, b) {
		return
	}
	g.rows[a] = append(g.rows[a], refEntry{to: b, w: w})
	g.rows[b] = append(g.rows[b], refEntry{to: a, w: w})
	g.edges++
}

// forEachEdge visits every undirected edge once, a < b, row by row.
func (g *adjList) forEachEdge(fn func(a, b ID, w float64)) {
	for a, row := range g.rows {
		for _, e := range row {
			if ID(a) < e.to {
				fn(ID(a), e.to, e.w)
			}
		}
	}
}

// replay builds n vertices and then adds every span's edges, in order.
func replay(n int, spans []EdgeSpan) *adjList {
	g := &adjList{rows: make([][]refEntry, n)}
	for _, sp := range spans {
		for k, ed := range sp.Ends {
			g.addEdge(sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]), sp.Weights[k])
		}
	}
	return g
}

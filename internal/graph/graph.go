// Package graph provides the generic adjacency-list graph used both for
// roadmaps (vertices = configurations, edges = valid local plans) and for
// region graphs (vertices = subdivision regions, edges = adjacency).
//
// It is a sequential data structure; distribution is handled a level up by
// assigning vertex ranges (regions) to virtual processors.
package graph

import "fmt"

// ID identifies a vertex within a Graph.
type ID int

// InvalidID is returned by lookups that find nothing.
const InvalidID ID = -1

// Edge is a weighted, undirected adjacency record.
type Edge struct {
	To     ID
	Weight float64
}

// Graph is an undirected adjacency-list graph with vertex payloads of
// type V. The zero value is an empty graph ready to use.
type Graph[V any] struct {
	verts []V
	adj   [][]Edge
	edges int
}

// New returns an empty graph with capacity hint n.
func New[V any](n int) *Graph[V] {
	return &Graph[V]{
		verts: make([]V, 0, n),
		adj:   make([][]Edge, 0, n),
	}
}

// EdgeSpan is a run of undirected edges between two blocks of vertex
// ids, in the shape planners store what they committed: edge k joins
// BaseA+Ends[k][0] and BaseB+Ends[k][1] with weight Weights[k].
type EdgeSpan struct {
	BaseA, BaseB ID
	Ends         [][2]int
	Weights      []float64
}

// FromSpans builds the graph that AddVertex over verts followed by
// AddEdge over every span's edges, in order, would build — the same
// Neighbors order, the same weights, self and duplicate edges dropped
// and not counted — in a fixed number of allocations: it counts degrees,
// cuts every adjacency row from one slab and fills the rows in edge
// order. Rows are cut with cap == len, so an AddEdge on the result
// reallocates the row it grows instead of writing into the next one.
// The graph takes ownership of verts.
func FromSpans[V any](verts []V, spans []EdgeSpan) *Graph[V] {
	n := len(verts)
	// Degrees are counted two slots up, so that after the prefix sum
	// pos[v+1] is where row v starts; filling advances it to where row v
	// ends, which is where row v+1 starts: pos[v] then delimits row v.
	pos := make([]int, n+2)
	for _, sp := range spans {
		for _, ed := range sp.Ends {
			if a, b := sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]); a != b {
				pos[a+2]++
				pos[b+2]++
			}
		}
	}
	for v := 0; v < n; v++ {
		pos[v+2] += pos[v+1]
	}
	slab := make([]Edge, pos[n+1])
	for _, sp := range spans {
		for k, ed := range sp.Ends {
			if a, b := sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]); a != b {
				slab[pos[a+1]] = Edge{To: b, Weight: sp.Weights[k]}
				pos[a+1]++
				slab[pos[b+1]] = Edge{To: a, Weight: sp.Weights[k]}
				pos[b+1]++
			}
		}
	}
	g := &Graph[V]{verts: verts, adj: make([][]Edge, n)}
	for v := range g.adj {
		g.adj[v] = slab[pos[v]:pos[v+1]:pos[v+1]]
	}
	// Duplicates: a row keeps the first entry per neighbour, which is the
	// earliest edge joining the pair — on both of its rows — exactly the
	// one AddEdge would have kept. pos is done delimiting rows and serves
	// as the stamp array: seen[w] == v+1 while row v has met w.
	seen := pos[:n]
	clear(seen)
	kept := 0
	for v, row := range g.adj {
		w := 0
		for _, e := range row {
			if seen[e.To] != v+1 {
				seen[e.To] = v + 1
				row[w] = e
				w++
			}
		}
		g.adj[v] = row[:w:w]
		kept += w
	}
	g.edges = kept / 2
	return g
}

// AddVertex appends a vertex and returns its ID.
func (g *Graph[V]) AddVertex(v V) ID {
	g.verts = append(g.verts, v)
	g.adj = append(g.adj, nil)
	return ID(len(g.verts) - 1)
}

// NumVertices returns the number of vertices.
func (g *Graph[V]) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of undirected edges.
func (g *Graph[V]) NumEdges() int { return g.edges }

// Vertex returns the payload of id. It panics for out-of-range ids.
func (g *Graph[V]) Vertex(id ID) V { return g.verts[id] }

// Vertices returns every payload, indexed by id (read-only).
func (g *Graph[V]) Vertices() []V { return g.verts }

// AddEdge inserts an undirected edge a—b with the given weight. Duplicate
// and self edges are rejected (returning false).
func (g *Graph[V]) AddEdge(a, b ID, weight float64) bool {
	if a == b {
		return false
	}
	if g.HasEdge(a, b) {
		return false
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: weight})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: weight})
	g.edges++
	return true
}

// HasEdge reports whether an edge a—b exists.
func (g *Graph[V]) HasEdge(a, b ID) bool {
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of id. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph[V]) Neighbors(id ID) []Edge { return g.adj[id] }

// Degree returns the number of edges incident to id.
func (g *Graph[V]) Degree(id ID) int { return len(g.adj[id]) }

// ForEachEdge calls fn once per undirected edge (a < b ordering).
func (g *Graph[V]) ForEachEdge(fn func(a, b ID, w float64)) {
	for a := range g.adj {
		for _, e := range g.adj[a] {
			if ID(a) < e.To {
				fn(ID(a), e.To, e.Weight)
			}
		}
	}
}

// String summarizes the graph.
func (g *Graph[V]) String() string {
	return fmt.Sprintf("graph{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// RemoveLastVertex deletes the most recently added vertex and all its
// edges. Only the last vertex can be removed (IDs stay dense), which is
// exactly what transient query attachments need. It panics on an empty
// graph.
func (g *Graph[V]) RemoveLastVertex() {
	last := ID(len(g.verts) - 1)
	if last < 0 {
		panic("graph: RemoveLastVertex on empty graph")
	}
	for _, e := range g.adj[last] {
		nbr := g.adj[e.To]
		for i, back := range nbr {
			if back.To == last {
				g.adj[e.To] = append(nbr[:i], nbr[i+1:]...)
				g.edges--
				break
			}
		}
	}
	g.verts = g.verts[:last]
	g.adj = g.adj[:last]
}

// Package graph provides the immutable weighted graph used both for
// roadmaps (vertices = configurations, edges = valid local plans) and for
// region graphs (vertices = subdivision regions, edges = adjacency).
//
// A graph is built once, by FromSpans from edges or by a RowBuilder row
// by row, and stored as compressed sparse rows: row v is
// to[off[v]:off[v+1]] beside w[off[v]:off[v+1]], so a vertex costs one
// int32 offset (and one bit of build scratch) and an entry an int32
// target and a float64 weight, with no slice header or pointer per row.
// Distribution is handled a level up by assigning vertex ranges
// (regions) to virtual processors.
package graph

import (
	"fmt"
	"math"
)

// ID identifies a vertex within a Graph.
type ID int32

// InvalidID is returned by lookups that find nothing.
const InvalidID ID = -1

// Graph is an undirected graph with vertex payloads of type V, in
// compressed sparse rows. The zero value is an empty graph.
type Graph[V any] struct {
	verts []V
	off   []int32 // row v is [off[v], off[v+1]); n+1 entries
	to    []ID
	w     []float64
}

// EdgeSpan is a run of undirected edges between two blocks of vertex
// ids, as a planner finds them: edge k joins BaseA+Ends[k][0] and
// BaseB+Ends[k][1] with weight Weights[k].
type EdgeSpan struct {
	BaseA, BaseB ID
	Ends         [][2]int
	Weights      []float64
}

// FromSpans builds the graph of verts and every span's edges. Each row
// lists its neighbours in edge order — span by span, edge by edge — with
// self edges dropped and only the first entry per neighbour kept, so a
// repeated pair keeps the weight of its earliest edge on both rows. It
// takes a fixed number of allocations: it counts degrees into the
// offsets, fills the rows in edge order, then compacts each row over its
// duplicates, which a bit per vertex, set for the targets the row has
// kept so far, finds in one pass. The graph takes ownership of verts.
//
// Offsets and targets are int32: FromSpans panics, before allocating,
// when the vertex count or the entry count (two per edge) exceeds
// math.MaxInt32.
func FromSpans[V any](verts []V, spans []EdgeSpan) *Graph[V] {
	n := len(verts)
	entries := 0
	for _, sp := range spans {
		entries += 2 * len(sp.Ends)
	}
	if n > math.MaxInt32 || entries > math.MaxInt32 {
		panic(fmt.Sprintf("graph: FromSpans over %d vertices and %d entries exceeds the int32 limit of %d", n, entries, math.MaxInt32))
	}
	// Degrees are counted one slot up, so that after the prefix sum
	// off[v] is where row v starts; filling advances it to where row v
	// ends, and compacting sets it to where row v's kept entries start.
	// The offsets' allocation also holds a bit per vertex, set while the
	// row being compacted has kept an entry to that vertex.
	buf := make([]int32, n+1+(n+31)/32)
	off, seen := buf[:n+1:n+1], buf[n+1:]
	for _, sp := range spans {
		for _, ed := range sp.Ends {
			if a, b := sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]); a != b {
				off[a+1]++
				off[b+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	to, w := make([]ID, off[n]), make([]float64, off[n])
	for _, sp := range spans {
		for k, ed := range sp.Ends {
			if a, b := sp.BaseA+ID(ed[0]), sp.BaseB+ID(ed[1]); a != b {
				to[off[a]], w[off[a]] = b, sp.Weights[k]
				off[a]++
				to[off[b]], w[off[b]] = a, sp.Weights[k]
				off[b]++
			}
		}
	}
	// off[v] is now where row v ends. Compact row by row: kept entries
	// move down over the duplicates of earlier rows, and a duplicate is
	// an entry whose target the row has already kept.
	kept, start := int32(0), int32(0)
	for v := 0; v < n; v++ {
		end, first := off[v], kept
		for i := start; i < end; i++ {
			u := to[i]
			if bit := int32(1) << (u & 31); seen[u>>5]&bit == 0 {
				seen[u>>5] |= bit
				to[kept], w[kept] = u, w[i]
				kept++
			}
		}
		for _, u := range to[first:kept] {
			seen[u>>5] = 0
		}
		off[v], start = first, end
	}
	off[n] = kept
	return &Graph[V]{verts: verts, off: off, to: to[:kept], w: w[:kept]}
}

// RowBuilder writes a graph's rows in id order into storage sized once,
// deriving a graph from another's rows (extended, filtered, relabelled)
// without rebuilding them from edges. The writer keeps the rows
// symmetric and free of self and repeated entries.
type RowBuilder[V any] struct{ g Graph[V] }

// NewRowBuilder starts the graph of verts, whose rows will hold entries
// entries in all; the graph takes ownership of verts. It panics, as
// FromSpans does, past the int32 limit.
func NewRowBuilder[V any](verts []V, entries int) *RowBuilder[V] {
	if len(verts) > math.MaxInt32 || entries > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d vertices and %d entries exceed the int32 limit of %d", len(verts), entries, math.MaxInt32))
	}
	return &RowBuilder[V]{Graph[V]{verts: verts, off: make([]int32, 1, len(verts)+1), to: make([]ID, 0, entries), w: make([]float64, 0, entries)}}
}

// Add appends the entry (u, w) to the open row.
func (b *RowBuilder[V]) Add(u ID, w float64) { b.g.to, b.g.w = append(b.g.to, u), append(b.g.w, w) }

// EndRow closes the open row and opens the next.
func (b *RowBuilder[V]) EndRow() { b.g.off = append(b.g.off, int32(len(b.g.to))) }

// Graph returns the graph. It panics unless every row was closed and
// exactly the promised entries were written.
func (b *RowBuilder[V]) Graph() *Graph[V] {
	if len(b.g.off) != len(b.g.verts)+1 || len(b.g.to) != cap(b.g.to) {
		panic(fmt.Sprintf("graph: %d of %d rows and %d of %d entries written", len(b.g.off)-1, len(b.g.verts), len(b.g.to), cap(b.g.to)))
	}
	return &b.g
}

// NumVertices returns the number of vertices.
func (g *Graph[V]) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of undirected edges.
func (g *Graph[V]) NumEdges() int { return len(g.to) / 2 }

// Vertex returns the payload of id. It panics for out-of-range ids.
func (g *Graph[V]) Vertex(id ID) V { return g.verts[id] }

// Vertices returns every payload, indexed by id (read-only).
func (g *Graph[V]) Vertices() []V { return g.verts }

// Neighbors returns row id: its neighbours and, index for index, the
// weights of the edges to them. Both slices are owned by the graph and
// must not be modified.
func (g *Graph[V]) Neighbors(id ID) ([]ID, []float64) {
	lo, hi := g.off[id], g.off[id+1]
	return g.to[lo:hi:hi], g.w[lo:hi:hi]
}

// Degree returns the number of edges incident to id.
func (g *Graph[V]) Degree(id ID) int { return int(g.off[id+1] - g.off[id]) }

// ForEachEdge calls fn once per undirected edge (a < b ordering).
func (g *Graph[V]) ForEachEdge(fn func(a, b ID, w float64)) {
	for a := range g.verts {
		for i := g.off[a]; i < g.off[a+1]; i++ {
			if ID(a) < g.to[i] {
				fn(ID(a), g.to[i], g.w[i])
			}
		}
	}
}

// String summarizes the graph.
func (g *Graph[V]) String() string {
	return fmt.Sprintf("graph{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// Package region implements the spatial subdivision layer: uniform grid
// subdivision of the C-space for PRM (Jacobs et al., ICRA 2012) and
// uniform radial subdivision for RRT (Jacobs et al., ICRA 2013), plus the
// region graph that records adjacency between regions.
//
// Regions are the quanta of work for all load-balancing strategies: the
// problem is deliberately over-decomposed (regions ≫ processors) so both
// work stealing and repartitioning have enough granularity to balance.
package region

import (
	"fmt"

	"parmp/internal/geom"
	"parmp/internal/graph"
)

// Kind discriminates grid boxes from radial cones.
type Kind int

const (
	// KindBox is a grid-subdivision region (an AABB of C-space).
	KindBox Kind = iota
	// KindCone is a radial-subdivision region (a cone about a ray).
	KindCone
)

// Region is one quantum of planning work.
type Region struct {
	ID   int
	Kind Kind

	// Box is the cell of a KindBox region: the grid's cells are disjoint
	// and tile the bounds.
	Box geom.AABB

	// Ray is the unit direction defining a KindCone region; Apex its
	// origin (the tree root); Radius the subdivision sphere radius;
	// HalfAngle the cone's angular reach used for biased sampling.
	Ray       geom.Vec
	Apex      geom.Vec
	Radius    float64
	HalfAngle float64
}

// String identifies the region.
func (r *Region) String() string {
	if r.Kind == KindBox {
		return fmt.Sprintf("region#%d box %v", r.ID, r.Box)
	}
	return fmt.Sprintf("region#%d cone dir=%v", r.ID, r.Ray)
}

// Graph is a region graph: vertices are regions, edges join adjacent
// regions between which roadmap connections will be attempted.
type Graph struct {
	G *graph.Graph[*Region]
	// Owner[i] is the processor currently owning region i. Populated by
	// the initial partition and updated by migration.
	Owner []int
}

// newGraph joins each pair of ends once, at unit weight, whichever
// orientation and however often it is listed (a k-NN region graph lists
// mutual neighbours twice), with every region on processor 0.
func newGraph(regions []*Region, ends [][2]int) *Graph {
	w := make([]float64, len(ends))
	for i := range w {
		w[i] = 1
	}
	g := graph.FromSpans(regions, []graph.EdgeSpan{{Ends: ends, Weights: w}})
	return &Graph{G: g, Owner: make([]int, len(regions))}
}

// NumRegions returns the number of regions.
func (rg *Graph) NumRegions() int { return rg.G.NumVertices() }

// Region returns region i.
func (rg *Graph) Region(i int) *Region { return rg.G.Vertex(graph.ID(i)) }

// Regions returns all regions in ID order.
func (rg *Graph) Regions() []*Region {
	out := make([]*Region, rg.NumRegions())
	for i := range out {
		out[i] = rg.Region(i)
	}
	return out
}

// SweepOrder returns every region ID in breadth-first order over the
// adjacency graph, each component swept from its lowest ID. Consecutive
// regions of the order are adjacent wherever the graph allows, so a
// contiguous chunk of it is a contiguous set of regions.
func (rg *Graph) SweepOrder() []int {
	n := rg.NumRegions()
	order := make([]int, 0, n) // doubles as the queue: order[head:] is still to expand
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		order = append(order, start)
		for head := len(order) - 1; head < len(order); head++ {
			to, _ := rg.G.Neighbors(graph.ID(order[head]))
			for _, u := range to {
				if nb := int(u); !seen[nb] {
					seen[nb] = true
					order = append(order, nb)
				}
			}
		}
	}
	return order
}

// ForEachAdjacentPair calls fn for every region adjacency (a < b).
func (rg *Graph) ForEachAdjacentPair(fn func(a, b int)) {
	rg.G.ForEachEdge(func(a, b graph.ID, _ float64) { fn(int(a), int(b)) })
}

// EdgeCut returns the number of region-graph edges whose endpoints are
// owned by different processors under the current Owner assignment — the
// quantity that drives remote accesses during the region-connection phase.
func (rg *Graph) EdgeCut() int {
	cut := 0
	rg.G.ForEachEdge(func(a, b graph.ID, _ float64) {
		if rg.Owner[a] != rg.Owner[b] {
			cut++
		}
	})
	return cut
}

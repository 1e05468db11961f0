package prm

import (
	"sort"

	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// RegionRepair is the product of re-validating one region's committed
// nodes and local edges against an environment delta: survival marks
// plus the collision work spent, which feeds the load accounting the
// same way construction work does (repair concentrates around the
// mutated obstacle, so its distribution is exactly the skewed workload
// the observed-cost balancer handles).
type RegionRepair struct {
	// Alive[i] reports node i survived (configuration still free).
	Alive []bool
	// KeepEdge[j] reports local edge j survived (both endpoints alive
	// and the sweep still valid).
	KeepEdge []bool
	// RepairStats counts the candidates that actually paid a collision
	// re-check (culled ones are free) and the casualties.
	cspace.RepairStats
}

// RevalidateRegion re-checks one region's nodes and local edges against
// dc. candidates, when non-nil, lists the only node indices that can
// have been invalidated (from a kd radius query over the committed
// snapshot); nil screens every node through the checker's cull. Edges
// are screened geometrically regardless — an edge can cross the delta
// with both endpoints far outside it.
func RevalidateRegion(dc *cspace.DeltaChecker, nodes []Node, edges [][2]int, candidates []int) RegionRepair {
	rr := RegionRepair{
		Alive:    make([]bool, len(nodes)),
		KeepEdge: make([]bool, len(edges)),
	}
	for i := range rr.Alive {
		rr.Alive[i] = true
	}
	check := func(i int) {
		if !dc.ConfigAffected(nodes[i].Q) {
			return
		}
		rr.CheckedNodes++
		if !dc.ConfigStillFree(nodes[i].Q, &rr.Work) {
			rr.Alive[i] = false
			rr.RemovedNodes++
		}
	}
	if candidates != nil {
		for _, i := range candidates {
			check(i)
		}
	} else {
		for i := range nodes {
			check(i)
		}
	}
	var sc cspace.Scratch
	for j, ed := range edges {
		a, b := ed[0], ed[1]
		if !rr.Alive[a] || !rr.Alive[b] {
			rr.RemovedEdges++
			continue
		}
		if !dc.EdgeAffected(nodes[a].Q, nodes[b].Q) {
			rr.KeepEdge[j] = true
			continue
		}
		rr.CheckedEdges++
		if dc.EdgeStillFreeS(nodes[a].Q, nodes[b].Q, &sc, &rr.Work) {
			rr.KeepEdge[j] = true
		} else {
			rr.RemovedEdges++
		}
	}
	return rr
}

// AffectedVertices returns the indices of roadmap vertices whose
// validity the delta may have changed — a superset by construction
// (culling is conservative), so callers re-check members and trust
// non-members. When the checker offers a cull ball (point-robot
// C-spaces) the selection is a kd radius query over the index's forest,
// which searches only the trees whose box meets the ball, filtered
// through the tighter box test; otherwise it degrades to a scan. Sorted
// ascending. A nil return means "nothing affected".
func (ix *Index) AffectedVertices(dc *cspace.DeltaChecker) []int {
	if !dc.Invalidating() {
		return nil
	}
	if center, radius, ok := dc.CullBall(); ok {
		var sc knn.QueryScratch
		hits, _ := ix.forest.RadiusInto(&sc, center, radius, nil)
		out := make([]int, 0, len(hits))
		for _, h := range hits {
			if dc.ConfigAffected(ix.verts[h.Index].Q) {
				out = append(out, h.Index)
			}
		}
		sort.Ints(out)
		return out
	}
	var out []int
	for i, v := range ix.verts {
		if dc.ConfigAffected(v.Q) {
			out = append(out, i)
		}
	}
	return out
}

// RelabelScoped computes connected-component labels for a repaired
// roadmap without touching the components the repair left alone.
// oldLabel maps each vertex of m to its pre-repair component label and
// touched, indexed by those labels, marks the components that lost a
// vertex or an edge. Vertices of untouched components keep their old
// connectivity — repair only removes, and every edge was
// intra-component, so an untouched component is bit-identical to before
// — and get their old label compacted into the new dense label space, in
// order of first appearance. Touched components are then relabeled by a
// breadth-first sweep restricted to their own vertices and surviving
// edges, which is where splits appear (a door closing severs the two
// sides of the passage); the pieces are numbered after the untouched
// components, by their lowest vertex.
func RelabelScoped(m *Roadmap, oldLabel []int32, touched []bool) (labels []int32, comps int) {
	n := m.NumNodes()
	labels = make([]int32, n)
	// dense[ol] is old label ol's new label plus one; zero = not met yet.
	dense := make([]int32, len(touched))
	pending := 0
	for v, ol := range oldLabel[:n] {
		if touched[ol] {
			labels[v] = -1 // relabel below
			pending++
			continue
		}
		if dense[ol] == 0 {
			comps++
			dense[ol] = int32(comps)
		}
		labels[v] = dense[ol] - 1
	}
	// Every touched vertex is enqueued once, so one queue serves all the
	// pieces in turn. A touched vertex has only touched neighbours, and
	// the label test keeps the sweep off everything already numbered.
	queue := make([]graph.ID, 0, pending)
	for v := range labels {
		if labels[v] != -1 {
			continue
		}
		labels[v] = int32(comps)
		queue = append(queue, graph.ID(v))
		for head := len(queue) - 1; head < len(queue); head++ {
			to, _ := m.G.Neighbors(queue[head])
			for _, u := range to {
				if labels[u] == -1 {
					labels[u] = int32(comps)
					queue = append(queue, u)
				}
			}
		}
		comps++
	}
	return labels, comps
}

// RepairIndex builds the query index for a repaired roadmap m from the
// pre-repair index: remap maps old vertex ids to new ones (-1 =
// removed) and touchedVerts lists old vertex ids whose components lost
// a vertex or an edge. Labels carry over for untouched components (the
// scoped relabel), only the touched components relabel, and the forest
// is assembled as BuildIndex does.
func RepairIndex(old *Index, m *Roadmap, remap []int, touchedVerts []int) *Index {
	touched := make([]bool, old.comps)
	for _, v := range touchedVerts {
		touched[old.labels[v]] = true
	}
	oldLabelOfNew := make([]int32, m.NumNodes())
	for oldID, newID := range remap {
		if newID >= 0 {
			oldLabelOfNew[newID] = old.labels[oldID]
		}
	}
	labels, comps := RelabelScoped(m, oldLabelOfNew, touched)
	return IndexFromParts(m, labels, comps)
}

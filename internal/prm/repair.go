package prm

import (
	"slices"
	"sort"

	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/knn"
)

// RegionRepair is the sparse product of re-validating one region's
// committed nodes and local edges, or one adjacent pair's edges, against
// an environment delta: what died, plus the collision work spent, which
// feeds the load accounting the same way construction work does (repair
// concentrates around the mutated obstacle, so its distribution is
// exactly the skewed workload the observed-cost balancer handles).
type RegionRepair struct {
	// Dead lists the vertices no longer free, ascending.
	Dead []graph.ID
	// Blocked lists the edges the delta now blocks between survivors,
	// lower id first; an edge with a dead endpoint dies with it unlisted.
	Blocked [][2]graph.ID
	// RepairStats counts the candidates that actually paid a collision
	// re-check (culled ones are free) and the casualties.
	cspace.RepairStats
}

// RevalidateRegion re-checks one region's nodes — the vertices [lo, hi)
// of the committed roadmap g — and the edges among them against dc.
// candidates, when non-nil, lists the only vertex ids of g that can have
// been invalidated (from a kd radius query over the committed snapshot),
// ascending, and the region re-checks those in its range; nil screens
// every node through the checker's cull. Edges are
// screened geometrically regardless — an edge can cross the delta with
// both endpoints far outside it.
func RevalidateRegion(dc *cspace.DeltaChecker, g *graph.Graph[Node], lo, hi int, candidates []int) RegionRepair {
	var rr RegionRepair
	check := func(v int) {
		q := g.Vertex(graph.ID(v)).Q
		if !dc.ConfigAffected(q) {
			return
		}
		rr.CheckedNodes++
		if !dc.ConfigStillFree(q, &rr.Work) {
			rr.Dead = append(rr.Dead, graph.ID(v))
			rr.RemovedNodes++
		}
	}
	if candidates != nil {
		i, _ := slices.BinarySearch(candidates, lo)
		j, _ := slices.BinarySearch(candidates, hi)
		for _, v := range candidates[i:j] {
			check(v)
		}
	} else {
		for v := lo; v < hi; v++ {
			check(v)
		}
	}
	rr.RecheckEdges(dc, g, lo, hi, lo, hi, rr.Dead, rr.Dead)
	return rr
}

// RecheckEdges re-checks the edges of g from the vertices [a0, a1) to the
// vertices [b0, b1), reading each from the rows of its lower end — the
// ranges are one region's, or b's lies above a's — and folds the outcome
// into rr. deadA and deadB are the two ranges' dead vertices, ascending:
// an edge dies with either endpoint, unchecked.
func (rr *RegionRepair) RecheckEdges(dc *cspace.DeltaChecker, g *graph.Graph[Node], a0, a1, b0, b1 int, deadA, deadB []graph.ID) {
	var sc cspace.Scratch
	for v := graph.ID(a0); v < graph.ID(a1); v++ {
		to, _ := g.Neighbors(v)
		for _, u := range to {
			if u <= v || u < graph.ID(b0) || u >= graph.ID(b1) {
				continue
			}
			_, deadV := slices.BinarySearch(deadA, v)
			_, deadU := slices.BinarySearch(deadB, u)
			if deadV || deadU {
				rr.RemovedEdges++
				continue
			}
			qa, qb := g.Vertex(v).Q, g.Vertex(u).Q
			if !dc.EdgeAffected(qa, qb) {
				continue
			}
			rr.CheckedEdges++
			if !dc.EdgeStillFreeS(qa, qb, &sc, &rr.Work) {
				rr.Blocked = append(rr.Blocked, [2]graph.ID{v, u})
				rr.RemovedEdges++
			}
		}
	}
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

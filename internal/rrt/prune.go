package rrt

import (
	"math"

	"parmp/internal/cspace"
)

// PruneTree repairs a tree in place against dc and returns the
// compacted tree. A node dies when its configuration is now blocked or
// its parent edge is now blocked; descendants of a dead node are
// severed. The frontier node of each severed subtree (the first node in
// index order whose own configuration and parent edge survived but
// whose parent died) tries to regraft: a fresh local plan to one of its
// graftK nearest surviving ancestors-to-date. A successful graft saves
// the whole subtree below it; a failed one lets the severance
// propagate.
//
// The single forward pass is sound because trees are append-only
// (parent index < child index), so every node's parent fate is decided
// before the node itself. Node order is preserved under compaction,
// which keeps that invariant for future growth. The root is never
// removed — a tree must stay rooted for the engines — even when its
// configuration is blocked (queries through it simply fail validity).
// The returned remap has one entry per old node: its new index, or -1
// if pruned. The stats count removed nodes (blocked themselves, blocked
// parent edge, or unsalvageable severed descendants) and grafted
// severed-subtree roots.
func PruneTree(s *cspace.Space, dc *cspace.DeltaChecker, t *Tree, graftK int) (remap []int, st cspace.RepairStats) {
	n := t.Len()
	remap = make([]int, n)
	if !dc.Invalidating() || n == 0 {
		for i := range remap {
			remap[i] = i
		}
		return remap, st
	}
	if graftK <= 0 {
		graftK = 3
	}
	alive := make([]bool, n)
	alive[0] = true // the root stays by contract
	for i := 1; i < n; i++ {
		nd := t.Nodes[i]
		if dc.ConfigAffected(nd.Q) {
			st.CheckedNodes++
			if !dc.ConfigStillFree(nd.Q, &st.Work) {
				continue // node itself is blocked
			}
		}
		parentAlive := alive[nd.Parent]
		if parentAlive {
			if dc.EdgeAffected(t.Nodes[nd.Parent].Q, nd.Q) {
				st.CheckedEdges++
				if !dc.EdgeStillFree(t.Nodes[nd.Parent].Q, nd.Q, &st.Work) {
					parentAlive = false // edge severed; try to regraft below
				}
			}
		}
		if parentAlive {
			alive[i] = true
			continue
		}
		// Severed frontier: the node is free but disconnected. Regraft to
		// a surviving node if a nearby one admits a local plan. Candidates
		// are restricted to already-processed nodes (index < i), whose
		// fate is final — which also preserves the parent<child invariant.
		if p, ok := regraft(s, dc, t, alive, i, graftK, &st); ok {
			t.Nodes[i].Parent = p
			alive[i] = true
			st.Grafted++
		}
	}
	// Compact in place, preserving order.
	w := 0
	for i := 0; i < n; i++ {
		if !alive[i] {
			remap[i] = -1
			st.RemovedNodes++
			continue
		}
		remap[i] = w
		nd := t.Nodes[i]
		if nd.Parent >= 0 {
			nd.Parent = remap[nd.Parent]
		}
		t.Nodes[w] = nd
		w++
	}
	t.Nodes = t.Nodes[:w]
	return remap, st
}

// regraft finds up to k nearest alive nodes before i and returns the
// first one reachable by a valid local plan. The plan runs against the
// full post-delta space semantics: the old world already validated
// nothing here (this is a brand-new edge), so it must check both the
// delta view and the pre-existing obstacles — which s provides, because
// the caller passes the post-mutation space.
func regraft(s *cspace.Space, dc *cspace.DeltaChecker, t *Tree, alive []bool, i, k int, st *cspace.RepairStats) (int, bool) {
	type cand struct {
		idx int
		d   float64
	}
	best := make([]cand, 0, k)
	q := t.Nodes[i].Q
	for j := 0; j < i; j++ {
		if !alive[j] {
			continue
		}
		d := s.Distance(t.Nodes[j].Q, q)
		if len(best) < k {
			best = append(best, cand{j, d})
		} else {
			worst := 0
			for b := 1; b < len(best); b++ {
				if best[b].d > best[worst].d {
					worst = b
				}
			}
			if d < best[worst].d {
				best[worst] = cand{j, d}
			}
		}
		st.Work.KNNEvals++
	}
	st.Work.KNNQueries++
	// Try nearest first.
	for len(best) > 0 {
		bi := 0
		bd := math.Inf(1)
		for b, c := range best {
			if c.d < bd {
				bd = c.d
				bi = b
			}
		}
		c := best[bi]
		best = append(best[:bi], best[bi+1:]...)
		if s.LocalPlan(t.Nodes[c.idx].Q, q, &st.Work) {
			return c.idx, true
		}
	}
	return 0, false
}

// PruneBiTree repairs both trees of a region's RRT-Connect pair and
// re-derives the met state: the pair stays met only when both meeting
// nodes survived (grafting elsewhere cannot fake a meet — the meeting
// configurations themselves are unchanged). Returns the remaps for A
// and B (nil for an absent B).
func PruneBiTree(s *cspace.Space, dc *cspace.DeltaChecker, bi *BiTree, graftK int) (remapA, remapB []int, st cspace.RepairStats) {
	remapA, st = PruneTree(s, dc, bi.A, graftK)
	if bi.B == nil {
		return remapA, nil, st
	}
	var stB cspace.RepairStats
	remapB, stB = PruneTree(s, dc, bi.B, graftK)
	st.Add(stB)
	if bi.Met {
		a, b := remapA[bi.AMeet], remapB[bi.BMeet]
		if a >= 0 && b >= 0 {
			bi.AMeet, bi.BMeet = a, b
		} else {
			bi.Met = false
			bi.AMeet, bi.BMeet = 0, 0
		}
	}
	return remapA, remapB, st
}

package core

import (
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
)

// treeRef maps a flattened point index back to (branch, node).
type treeRef struct{ branch, node int }

// TreeIndex is a prebuilt query accelerator over a frozen RRT result:
// every branch node is gathered once and indexed in a kd-tree at build
// time, so extracting a path to a goal costs a handful of kNN lookups
// instead of re-gathering and fully sorting every tree node per call.
// A TreeIndex never mutates its result, which is what makes a published
// engine snapshot safe for concurrent readers.
type TreeIndex struct {
	res  *RRTResult
	pts  []geom.Vec
	refs []treeRef
	tree *knn.KDTree
}

// BuildTreeIndex gathers r's branch nodes and builds the kd-tree (in
// parallel for large trees). The index keeps references into r; the
// result must not be mutated afterwards — engine results are immutable
// by construction, so any Result()/snapshot value qualifies.
func BuildTreeIndex(r *RRTResult) *TreeIndex {
	var pts []geom.Vec
	var refs []treeRef
	for bi, tree := range r.Branches {
		if tree == nil {
			continue
		}
		for ni, n := range tree.Nodes {
			pts = append(pts, n.Q)
			refs = append(refs, treeRef{branch: bi, node: ni})
		}
	}
	return &TreeIndex{res: r, pts: pts, refs: refs, tree: knn.BuildParallel(pts, 0)}
}

// NumNodes returns the number of indexed tree nodes.
func (ix *TreeIndex) NumNodes() int { return len(ix.pts) }

// ExtractPath returns a collision-free configuration path from the RRT
// root to goal: a tree node near goal that the local planner can connect
// to it is located across all branches and walked back to the root along
// parent links. Candidates come from kd-tree lookups with a doubling
// neighbourhood, so the common case (a nearby node connects) costs
// O(log n) per lookup; nearby nodes can all be unreachable — wrong side
// of a wall, incompatible heading — so it keeps widening until every
// node has been tried. ok is false when the goal cannot be attached to
// the tree. Safe for concurrent use. Candidates are tried through the
// batched local planner (the sequential one in a steered space), which
// accepts exactly the edges the sequential one accepts: the path is the
// same, and what c bills for a rejected candidate is the batch order's.
func (ix *TreeIndex) ExtractPath(s *cspace.Space, goal cspace.Config, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(goal, c) {
		return nil, false
	}
	n := len(ix.pts)
	if n == 0 {
		return nil, false
	}
	var bt cspace.Batch
	tried := 0
	for k := 8; tried < n; k *= 2 {
		hits, evals := ix.tree.Nearest(goal, k)
		if c != nil {
			c.KNNQueries++
			c.KNNEvals += int64(evals)
		}
		// hits are sorted closest-first; the first `tried` were already
		// attempted in the previous, smaller neighbourhood.
		for _, h := range hits[tried:] {
			rf := ix.refs[h.Index]
			branch := ix.res.Branches[rf.branch]
			// Plan tree → goal: steering may be asymmetric (a forward-only
			// car cannot drive a path backwards).
			if !s.LocalPlanBatch(branch.Nodes[rf.node].Q, goal, &bt, c) {
				continue
			}
			idxPath := branch.PathToRoot(rf.node)
			path := make([]cspace.Config, 0, len(idxPath)+1)
			for i := len(idxPath) - 1; i >= 0; i-- {
				path = append(path, branch.Nodes[idxPath[i]].Q.Clone())
			}
			path = append(path, goal.Clone())
			return path, true
		}
		tried = len(hits)
		if len(hits) < k {
			break // neighbourhood already covered the whole tree
		}
	}
	return nil, false
}

// Query answers a start-to-goal query against the tree. Every path runs
// from the root, so start must be the root itself or one free local plan
// from it (then it is prepended); the path follows tree edges to a node
// that attaches goal (see ExtractPath). k is unused: the signature is
// prm.Index.Query's, so a snapshot answers through either index.
func (ix *TreeIndex) Query(s *cspace.Space, start, goal cspace.Config, k int, c *cspace.Counters) ([]cspace.Config, bool) {
	if len(ix.pts) == 0 {
		return nil, false
	}
	root := ix.res.Branches[0].Nodes[0].Q
	path, ok := ix.ExtractPath(s, goal, c)
	if !ok {
		return nil, false
	}
	if start.Equal(root, 0) {
		return path, true
	}
	// Off-root start: admit it only if one local plan reaches the root.
	if !s.Valid(start, c) || !s.LocalPlan(start, root, c) {
		return nil, false
	}
	return append([]cspace.Config{start.Clone()}, path...), true
}

package parmp

import (
	"parmp/internal/core"
	"parmp/internal/prm"
)

// A RoadmapIndex answers repeated queries against a frozen roadmap: the
// kd index and connected-component labels are built once, and every
// Query runs against them without touching the roadmap. This is the
// structure engine snapshots query through; build one directly when
// planning with PlanPRM and answering more than a handful of queries.
//
// The index keeps references into the roadmap, which must not be
// mutated afterwards. Safe for concurrent use.
type RoadmapIndex struct {
	ix *prm.Index
}

// NewRoadmapIndex builds a query index over m: a planner's roadmap
// brings its region kd-trees, any other gets one tree.
func NewRoadmapIndex(m *Roadmap) *RoadmapIndex {
	return &RoadmapIndex{ix: prm.BuildIndex(m)}
}

// Query connects start and goal to the roadmap (each to its k nearest
// nodes) and extracts a shortest path, returning ok=false if none
// exists. The roadmap is not modified.
func (ix *RoadmapIndex) Query(space *Space, start, goal Config, k int) ([]Config, bool) {
	return ix.ix.Query(space, start, goal, k, nil)
}

// A TreeIndex answers repeated path extractions against a frozen RRT
// result: the tree nodes are gathered into a kd-tree once, and every
// ExtractPath finds attachment candidates by nearest-neighbour lookup
// instead of re-sorting all nodes. This is the structure engine
// snapshots extract through; build one directly when planning with
// PlanRRT or PlanRRTConnect and extracting more than one path.
//
// The index keeps references into the result, which must not be grown
// afterwards. Safe for concurrent use.
type TreeIndex struct {
	ix *core.TreeIndex
}

// NewTreeIndex builds an extraction index over res (in parallel for
// large trees).
func NewTreeIndex(res *RRTResult) *TreeIndex {
	return &TreeIndex{ix: core.BuildTreeIndex(res)}
}

// ExtractPath returns a collision-free path from the tree root to goal,
// or ok=false when the goal cannot be attached to the tree.
func (ix *TreeIndex) ExtractPath(space *Space, goal Config) ([]Config, bool) {
	return ix.ix.ExtractPath(space, goal, nil)
}

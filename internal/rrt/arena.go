package rrt

import (
	"sync"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
)

// arena bundles the reusable buffers one RRT task needs: collision
// scratch, kNN query scratch, a rebuildable kd-tree, point slices and
// candidate-configuration buffers. Extend/Connect tasks borrow one from
// a sync.Pool so steady-state growth allocates only the accepted tree
// nodes. An arena is not safe for concurrent use.
type arena struct {
	sc    cspace.Scratch
	bt    cspace.Batch
	qsc   knn.QueryScratch
	tree  knn.KDTree
	pts   []geom.Vec
	aux   []geom.Vec
	hits  []knn.Result
	near  []knn.Result
	qRand cspace.Config
	qNew  cspace.Config
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// getArena borrows an arena from the shared pool.
func getArena() *arena { return arenaPool.Get().(*arena) }

// putArena returns an arena to the pool.
func putArena(a *arena) { arenaPool.Put(a) }

// gather fills *buf (regrown when too small) with the configurations of
// t's nodes and returns it.
func gather(buf *[]geom.Vec, t *Tree) []geom.Vec {
	if cap(*buf) < t.Len() {
		*buf = make([]geom.Vec, t.Len())
	}
	pts := (*buf)[:t.Len()]
	for i, n := range t.Nodes {
		pts[i] = n.Q
	}
	*buf = pts
	return pts
}

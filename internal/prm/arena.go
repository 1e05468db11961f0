package prm

import (
	"sync"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
)

// arena bundles the reusable buffers one PRM task needs: collision
// scratch, kNN query scratch, a rebuildable kd-tree, point slices, hit
// and edge accumulators, and the dedup set. Region tasks borrow one from
// a sync.Pool for the duration of a kernel call, so steady-state
// planning allocates only the nodes and edges it actually returns. An
// arena is not safe for concurrent use.
type arena struct {
	sc       cspace.Scratch
	bt       cspace.Batch
	qsc      knn.QueryScratch
	tree     knn.KDTree
	pts      []geom.Vec
	aux      []geom.Vec
	hits     []knn.Result
	offs     []int
	edges    [][2]int
	sources  []int
	centroid geom.Vec
	sample   cspace.Config
	seen     map[[2]int]bool
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// getArena borrows an arena from the shared pool.
func getArena() *arena { return arenaPool.Get().(*arena) }

// putArena returns an arena to the pool. The arena keeps its buffers;
// only logical state is cleared by the kernels that use it.
func putArena(a *arena) { arenaPool.Put(a) }

// gather fills *buf (regrown when too small) with the configurations of
// nodes and returns it.
func gather(buf *[]geom.Vec, nodes []Node) []geom.Vec {
	if cap(*buf) < len(nodes) {
		*buf = make([]geom.Vec, len(nodes))
	}
	pts := (*buf)[:len(nodes)]
	for i, n := range nodes {
		pts[i] = n.Q
	}
	*buf = pts
	return pts
}

// resetSeen returns the cleared dedup set.
func (a *arena) resetSeen() map[[2]int]bool {
	if a.seen == nil {
		a.seen = make(map[[2]int]bool)
	} else {
		clear(a.seen)
	}
	return a.seen
}

// copyEdges returns an owned copy of the arena's edge accumulator, or
// nil when no edges were found (matching the allocating kernels).
func copyEdges(edges [][2]int) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]int, len(edges))
	copy(out, edges)
	return out
}

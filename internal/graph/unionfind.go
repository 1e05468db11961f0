package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression. It tracks roadmap connected components incrementally so
// planners can cheaply ask "are these two samples already connected?"
// before spending local-planning work.
type UnionFind struct {
	parent []int
	rank   []byte
}

// NewUnionFind returns a structure over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
	}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Grow appends k new singleton elements and returns the index of the
// first one.
func (u *UnionFind) Grow(k int) int {
	first := len(u.parent)
	for i := 0; i < k; i++ {
		u.parent = append(u.parent, first+i)
		u.rank = append(u.rank, 0)
	}
	return first
}

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing a and b; it reports whether a merge
// happened (false if they were already together).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

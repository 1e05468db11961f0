package graph

import "container/heap"

// ConnectedComponents returns a component label per vertex and the number
// of components, numbered by their lowest vertex id. Every vertex is
// enqueued exactly once, so one queue of NumVertices slots serves every
// component's traversal in turn.
func (g *Graph[V]) ConnectedComponents() (labels []int32, count int) {
	n := len(g.verts)
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]ID, 0, n)
	for v := range labels {
		if labels[v] != -1 {
			continue
		}
		labels[v] = int32(count)
		queue = append(queue, ID(v))
		for head := len(queue) - 1; head < len(queue); head++ {
			to, _ := g.Neighbors(queue[head])
			for _, u := range to {
				if labels[u] == -1 {
					labels[u] = int32(count)
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	id   ID
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ShortestPath returns the minimum-weight path from a to b and its total
// weight using Dijkstra's algorithm. ok is false when b is unreachable.
// Edge weights must be non-negative.
func (g *Graph[V]) ShortestPath(a, b ID) (path []ID, dist float64, ok bool) {
	n := len(g.verts)
	if int(a) >= n || int(b) >= n {
		return nil, 0, false
	}
	const unvisited = -2
	prev := make([]ID, n)
	seen := make([]bool, n)
	best := make([]float64, n)
	for i := range prev {
		prev[i] = unvisited
		best[i] = -1
	}
	q := &pq{{id: a, dist: 0}}
	best[a] = 0
	prev[a] = InvalidID
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if seen[it.id] {
			continue
		}
		seen[it.id] = true
		if it.id == b {
			break
		}
		to, w := g.Neighbors(it.id)
		for i, u := range to {
			nd := it.dist + w[i]
			if best[u] < 0 || nd < best[u] {
				best[u] = nd
				prev[u] = it.id
				heap.Push(q, pqItem{id: u, dist: nd})
			}
		}
	}
	if !seen[b] {
		return nil, 0, false
	}
	for cur := b; cur != InvalidID; cur = prev[cur] {
		path = append(path, cur)
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, best[b], true
}

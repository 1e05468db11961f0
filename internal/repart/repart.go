// Package repart implements bulk-synchronous repartitioning of the region
// graph (Section III-B of the paper): estimate a weight per region,
// compute a better region→processor assignment with a greedy global
// partitioner (the exact problem is NP-complete), and price the data
// migration the new assignment implies.
//
// Two weight estimators are provided, matching the paper:
//
//   - PRM: the number of roadmap samples inside the region — cheap and
//     highly correlated with node-connection work, which makes
//     repartitioning very effective for PRM;
//   - RRT: the k-random-rays free-space probe — shown by the paper (and
//     reproduced here) to be a *poor* estimator, which makes
//     repartitioning counter-productive for radial RRT.
package repart

import (
	"container/heap"
	"sort"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/rng"
	"parmp/internal/work"
)

// procLoad is a heap entry for the LPT partitioner.
type procLoad struct {
	proc int
	load float64
}

type loadHeap []procLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].proc < h[j].proc
}
func (h loadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x any)   { *h = append(*h, x.(procLoad)) }
func (h *loadHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// GreedyLPT computes a weight-balanced assignment of regions to p
// processors using longest-processing-time-first: regions sorted by
// descending weight, each placed on the least-loaded processor. Edge cuts
// are ignored (the paper's model-environment partitioner). It returns the
// assignment without applying it.
func GreedyLPT(weights []float64, p int) []int {
	n := len(weights)
	assign := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	h := make(loadHeap, p)
	for i := 0; i < p; i++ {
		h[i] = procLoad{proc: i}
	}
	heap.Init(&h)
	for _, ri := range order {
		least := heap.Pop(&h).(procLoad)
		assign[ri] = least.proc
		least.load += weights[ri]
		heap.Push(&h, least)
	}
	return assign
}

// GreedySpatial computes a weight-balanced assignment that preserves
// spatial contiguity: regions are visited in a spatial sweep (ID order
// for grids, BFS for other region graphs) and assigned to processors in
// contiguous chunks sized by weight, so the edge cut stays near the
// naive partition's while loads approach the ideal. slack loosens the
// per-chunk fill threshold as a fraction of the ideal load (default 0.05
// when <= 0).
func GreedySpatial(rg *region.Graph, weights []float64, p int, slack float64) []int {
	n := len(weights)
	if slack <= 0 {
		slack = 0.05
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]float64, p)

	// Order: grid regions are visited in ID order — row-major IDs are a
	// spatial sweep, so contiguous chunks are slabs and the edge cut
	// stays close to the naive column partition's. Region graphs without
	// grid structure (radial cones) use a BFS sweep instead, which keeps
	// consecutive placements adjacent on the sphere.
	var order []int
	if rg.NumRegions() > 0 && rg.Region(0).Kind == region.KindBox {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		order = rg.SweepOrder()
	}

	// Region growing: fill processor 0 with a contiguous BFS chunk, then
	// processor 1, and so on. Contiguous chunks keep the edge cut low.
	// The fill threshold is recomputed from the weight still unassigned,
	// so early overshoot does not pile the remainder onto the last
	// processor.
	remaining := total
	cur := 0
	target := remaining / float64(p)
	for _, ri := range order {
		// Advance when adding this region would overshoot the chunk
		// target by more than half the region's weight — i.e. stop at
		// whichever boundary lands closer to the target. slack biases
		// the decision toward slightly fuller chunks.
		if cur < p-1 && load[cur]+weights[ri]/2 > target*(1+slack) {
			remaining -= load[cur]
			cur++
			target = remaining / float64(p-cur)
		}
		assign[ri] = cur
		load[cur] += weights[ri]
	}
	return assign
}

// Plan describes a migration from the current ownership to a new
// assignment.
type Plan struct {
	NewOwner []int
	// Moved lists region IDs whose owner changes.
	Moved []int
}

// MakePlan diffs the region graph's current ownership against assign.
func MakePlan(rg *region.Graph, assign []int) Plan {
	pl := Plan{NewOwner: append([]int(nil), assign...)}
	for i, o := range assign {
		if rg.Owner[i] != o {
			pl.Moved = append(pl.Moved, i)
		}
	}
	return pl
}

// Apply installs the plan's ownership into the region graph.
func (pl Plan) Apply(rg *region.Graph) {
	copy(rg.Owner, pl.NewOwner)
}

// MigrationCost prices the plan under a machine profile. Redistribution
// is bulk-synchronous, so moves between the same (source, destination)
// pair batch into one message: the fixed migration overhead is charged
// once per pair, plus a per-vertex charge for each moved region's payload
// (e.g. samples already generated in it). payload may be nil
// (descriptor-only migration; a small per-region descriptor charge
// remains). The result is the maximum cost over processors, since sends
// proceed in parallel.
func (pl Plan) MigrationCost(rg *region.Graph, profile work.MachineProfile, payload []int, procs int) float64 {
	perProc := make([]float64, procs)
	pairSeen := map[[2]int]bool{}
	// Per-region descriptor bytes are tiny relative to payload; charge a
	// fraction of the fixed cost for each.
	descriptor := profile.MigrateFixed / 10
	for _, ri := range pl.Moved {
		src, dst := rg.Owner[ri], pl.NewOwner[ri]
		cost := descriptor
		if payload != nil {
			cost += profile.MigratePerVertex * float64(payload[ri])
		}
		pair := [2]int{src, dst}
		if !pairSeen[pair] {
			pairSeen[pair] = true
			cost += profile.MigrateFixed
		}
		// Charge both ends of the transfer.
		perProc[src] += cost
		perProc[dst] += cost
	}
	var max float64
	for _, c := range perProc {
		if c > max {
			max = c
		}
	}
	return max
}

// SampleCountWeights returns the paper's PRM region weight: the number of
// roadmap samples that lie within each region ("a good metric for
// approximating the amount of work that a region will generate").
func SampleCountWeights(samplesPerRegion []int) []float64 {
	w := make([]float64, len(samplesPerRegion))
	for i, n := range samplesPerRegion {
		w[i] = float64(n)
	}
	return w
}

// KRayWeights estimates RRT region work with the paper's k-random-rays
// probe: cast k rays from the region apex within the cone and average the
// distance to the first obstacle. The paper shows — and this reproduction
// preserves — that the estimate correlates poorly with actual branch
// growth cost unless k is impractically large.
func KRayWeights(e *env.Environment, rg *region.Graph, k int, seed uint64) []float64 {
	w := make([]float64, rg.NumRegions())
	for i := 0; i < rg.NumRegions(); i++ {
		reg := rg.Region(i)
		if reg.Kind != region.KindCone {
			continue
		}
		r := rng.Derive(seed, uint64(i)+0x5151)
		var sum float64
		for j := 0; j < k; j++ {
			dir := sampleConeDir(reg, r)
			d := e.RayDistanceToObstacle(reg.Apex, dir)
			if d > reg.Radius {
				d = reg.Radius
			}
			sum += d
		}
		w[i] = sum / float64(k)
	}
	return w
}

// sampleConeDir draws a unit direction within the region's cone.
func sampleConeDir(reg *region.Region, r *rng.Stream) geom.Vec {
	p := region.SampleInConeInto(nil, reg, r).Sub(reg.Apex)
	if p.Norm() < 1e-12 {
		return reg.Ray.Clone()
	}
	return p.Unit()
}

// Loads returns the per-processor load an assignment implies: entry p
// sums weights[i], in region order, over the regions i that assign gives
// processor p. Every balancing score in the paper is a function of it.
func Loads(weights []float64, assign []int, procs int) []float64 {
	load := make([]float64, procs)
	for i, w := range weights {
		load[assign[i]] += w
	}
	return load
}

// CoefficientOfVariation returns sigma/mu of the per-processor loads
// implied by weights and assignment — the paper's imbalance measure.
func CoefficientOfVariation(weights []float64, assign []int, procs int) float64 {
	return metrics.CV(Loads(weights, assign, procs))
}

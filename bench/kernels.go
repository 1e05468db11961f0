package main

import (
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/prm"
	"parmp/internal/rng"
)

// kernels times the planner's leaf functions on the workload's own
// inputs — its space, its region boxes, the roadmap it has just built —
// so the numbers are the ones that make up this workload's round, not a
// synthetic micro-benchmark's.
func (w *growWorkload) kernels(res *core.PRMResult, space *cspace.Space, m map[string]float64) {
	rg := res.RegionGraph
	nreg := rg.NumRegions()
	g := res.Roadmap.G
	r := rng.Derive(w.seed, saltKernel)
	n := w.sc.KernelIters

	// Validity: uniform samples from the region boxes, free and blocked.
	qs := make([]cspace.Config, min(n, 4096))
	for i := range qs {
		qs[i] = space.SampleIn(rg.Region(i%nreg).Box, r, nil)
	}
	m["cspace.valid_ns"] = float64(timePer(n, func(i int) {
		space.Valid(qs[i%len(qs)], nil)
	}).Nanoseconds())

	// Local plans: committed roadmap edges, so every plan runs full length.
	var edges [][2]cspace.Config
	g.ForEachEdge(func(a, b graph.ID, _ float64) {
		if len(edges) < 2048 {
			edges = append(edges, [2]cspace.Config{g.Vertex(a).Q, g.Vertex(b).Q})
		}
	})
	if len(edges) > 0 {
		lp := max(1, n/10)
		m["cspace.localplan_ns"] = float64(timePer(lp, func(i int) {
			e := edges[i%len(edges)]
			space.LocalPlan(e[0], e[1], nil)
		}).Nanoseconds())
		var bt cspace.Batch
		m["cspace.localplan_batch_ns_per_item"] = float64(timePer(lp, func(i int) {
			e := edges[i%len(edges)]
			space.LocalPlanBatch(e[0], e[1], &bt, nil)
		}).Nanoseconds())
	}

	// Region kernels: this workload's sample count and connection degree
	// on its own regions and their committed nodes.
	o := w.opts.Defaults()
	params := prm.Params{SamplesPerRegion: o.SamplesPerRegion, K: o.ConnectK}
	regions := max(1, min(nreg, n/50))
	m["prm.sampleregion_us"] = float64(timePer(regions, func(i int) {
		prm.SampleRegion(space, rg.Region(i).Box, i, params, rng.Derive(w.seed, uint64(i)))
	}).Nanoseconds()) / 1e3

	byRegion := make([][]prm.Node, nreg)
	pts := make([]geom.Vec, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		nd := g.Vertex(graph.ID(v))
		byRegion[nd.Region] = append(byRegion[nd.Region], nd)
		pts[v] = nd.Q
	}
	m["prm.connectregion_us"] = float64(timePer(regions, func(i int) {
		nodes := byRegion[i]
		// One round's share: the last SamplesPerRegion nodes are "new".
		prm.ConnectRegionIncremental(space, nodes, max(0, len(nodes)-o.SamplesPerRegion), params)
	}).Nanoseconds()) / 1e3

	var pairs [][2]int
	rg.ForEachAdjacentPair(func(a, b int) {
		if len(pairs) < regions {
			pairs = append(pairs, [2]int{a, b})
		}
	})
	m["prm.connectboundary_us"] = float64(timePer(len(pairs), func(i int) {
		a, b := byRegion[pairs[i][0]], byRegion[pairs[i][1]]
		newA := a[max(0, len(a)-o.SamplesPerRegion):]
		prm.ConnectBoundary(space, newA, b, o.BoundaryK, o.BoundaryFrontier)
	}).Nanoseconds()) / 1e3

	m["knn.buildparallel_ms"] = ms(timePer(3, func(int) { knn.BuildParallel(pts, 0) }))
}

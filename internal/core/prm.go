package core

import (
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/rng"
	"parmp/internal/work"
)

// PRMResult is the outcome of a parallel PRM run.
type PRMResult struct {
	RunStats
	Roadmap *prm.Roadmap
	// RoadmapRemote counts cross-processor roadmap accesses of the
	// region-connection phase (Fig. 7(b)).
	RoadmapRemote int
}

// prmRegionData is one region's committed nodes and local edges (edge
// indices are local to the region's node slice) with the work they cost.
// weights[j] is edge j's metric length, measured once at commit: the
// metric never depends on the environment, so it outlives every delta.
// tree, over exactly nodes, serves construct, region connection and the
// snapshot's index; gaining or losing nodes brings a new one.
type prmRegionData struct {
	nodes       []prm.Node
	tree        *knn.KDTree
	sampleWork  cspace.Counters
	edges       [][2]int
	weights     []float64
	connectWork cspace.Counters
}

// boundaryEdge records one adjacent pair's committed cross-region
// connections for the merge step, with their lengths (see prmRegionData).
type boundaryEdge struct {
	a, b    int
	pairs   [][2]int
	weights []float64
}

// PRMEngine grows a roadmap incrementally: each GrowRound runs one full
// pass of the paper's phase pipeline (sample → weight → [repartition] →
// node connection → region connection → merge) over the SAME region
// graph, kd indexes and ownership state, appending new samples to the
// per-region roadmaps instead of starting over. It is the round driver
// (engine) with the PRM planner hooks; a one-shot plan is exactly one
// round of it.
type PRMEngine struct {
	engine
	params prm.Params

	// data and boundary accumulate the committed per-region roadmaps and
	// cross-region edges across rounds: one entry per region, and one per
	// adjacent pair (indexed like engine.pairs) however many rounds ran.
	data          []prmRegionData
	boundary      []boundaryEdge
	roadmapRemote int

	rd  *prmRound  // the open growth round's buffers
	rp  *prmRepair // the open repair's buffers
	res *PRMResult // last committed cumulative result
	// changed reports that the committed structure has moved on from
	// res.Roadmap.
	changed bool
}

// prmRound holds one growth round's output until commit.
type prmRound struct {
	fresh []prmRegionData // this round's samples and their new edges
	// combined[i] is region i's committed nodes followed by its fresh
	// ones; firstNew[i] indexes the first fresh node.
	combined      [][]prm.Node
	firstNew      []int
	trees         []*knn.KDTree        // over combined[i], set by construct
	brs           []prm.BoundaryResult // per adjacent pair
	roadmapRemote int
}

// prmRepair holds one ApplyDelta's output until commit.
type prmRepair struct {
	base      []int   // merged-roadmap id of each region's first node
	localCand [][]int // per-region candidate node indices (nil = screen all)
	rrs       []prm.RegionRepair
	brs       []boundaryRepair // per adjacent pair
	// remap and touched are the committed repair's PRMRepair.VertexRemap
	// and TouchedVertices.
	remap, touched []int
}

// boundaryRepair is the re-validation outcome of one boundary edge set.
type boundaryRepair struct {
	keep []bool
	RepairStats
}

// NewPRMEngine validates opts, subdivides the C-space and builds the
// naive initial partition. No planning work happens until GrowRound.
func NewPRMEngine(s *cspace.Space, opts Options) (*PRMEngine, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	dims := s.Env.Dim()
	spec := region.SplitEvenly(dims, opts.Regions)
	rg, err := region.UniformGrid(s.Bounds, spec)
	if err != nil {
		return nil, err
	}
	region.NaiveColumnPartition(rg, opts.Procs)
	e := &PRMEngine{
		params: prm.Params{SamplesPerRegion: opts.SamplesPerRegion, K: opts.ConnectK, Sampler: opts.Sampler},
		data:   make([]prmRegionData, rg.NumRegions()),
	}
	e.constructSalt = saltPRMConstruct
	e.connectorPhase = "repair-boundary"
	e.pairOnEitherOwner = true
	e.setup(s, opts, rg, e)
	e.boundary = make([]boundaryEdge, len(e.pairs))
	for idx, pr := range e.pairs {
		e.boundary[idx].a, e.boundary[idx].b = pr[0], pr[1]
	}
	return e, nil
}

// Result returns the cumulative result of all committed rounds. The
// returned value is immutable: later rounds build a fresh result rather
// than mutating this one, so callers may hold it (and index its
// roadmap) while the engine keeps growing.
func (e *PRMEngine) Result() *PRMResult { return e.res }

// weigh runs the sampling phase — SamplesPerRegion fresh attempts per
// region on per-round streams, which keeps determinism — and returns the
// paper's PRM estimate: this round's sample counts predict this round's
// connection work (the construct phase only processes new samples).
func (e *PRMEngine) weigh(round int, phases *PhaseBreakdown) (estimate, bool) {
	opts, rg := e.opts, e.rg
	n := rg.NumRegions()
	rd := &prmRound{fresh: make([]prmRegionData, n), brs: make([]prm.BoundaryResult, len(e.pairs))}
	e.rd = rd
	rep := e.pl.run(phaseSpec{
		name: "sample",
		queues: queuesByOwner(opts.Procs, rg.Owner, n, func(i int) work.Task {
			return work.Task{
				ID: i,
				Run: func() float64 {
					r := rng.Derive(opts.Seed, roundSalt(round, i))
					f := &rd.fresh[i]
					f.nodes, f.sampleWork = prm.SampleRegion(e.s, rg.Region(i).Box, i, e.params, r)
					return opts.Cost.Time(f.sampleWork)
				},
			}
		}),
	})
	if rep.Stopped {
		return estimate{}, false
	}
	phases.Sampling = rep.Makespan + e.pl.barrier()

	counts := make([]int, n)
	rd.combined = make([][]prm.Node, n)
	rd.firstNew, rd.trees = make([]int, n), make([]*knn.KDTree, n)
	for i := 0; i < n; i++ {
		counts[i] = len(rd.fresh[i].nodes)
		rd.firstNew[i] = len(e.data[i].nodes)
		rd.combined[i] = make([]prm.Node, 0, rd.firstNew[i]+counts[i])
		rd.combined[i] = append(rd.combined[i], e.data[i].nodes...)
		rd.combined[i] = append(rd.combined[i], rd.fresh[i].nodes...)
	}
	return estimate{units: counts, payload: counts, fresh: true}, true
}

// constructTask connects region i's new samples, querying against its
// old + new nodes through the region's new tree (the committed one when
// the round brought nothing). Stealing the region moves all of its
// samples.
func (e *PRMEngine) constructTask(round, i int) work.Task {
	rd := e.rd
	return work.Task{
		ID:      i,
		Payload: len(rd.combined[i]),
		Run: func() float64 {
			f := &rd.fresh[i]
			tree := e.data[i].tree
			if tree == nil || len(f.nodes) > 0 {
				tree = prm.RegionTree(rd.combined[i])
			}
			rd.trees[i] = tree
			f.edges, f.connectWork = prm.ConnectRegionTree(e.s, tree, rd.firstNew[i], e.params)
			return e.opts.Cost.Time(f.connectWork)
		},
	}
}

// connectPair connects regions a and b after a round: a's new nodes
// against all of b, through b's tree, then a's old nodes against b's new
// nodes (new×all plus old×new, so pairs whose regions gained nothing
// cost nothing). Edge indices are mapped into the regions' final
// (committed) node order. In round 0 "old" is empty, so the single
// new×all call is exactly the one-shot ConnectBoundary.
func (e *PRMEngine) connectPair(idx, a, b int) cspace.Counters {
	combined, firstNew := e.rd.combined, e.rd.firstNew
	out := &e.rd.brs[idx]
	newA := combined[a][firstNew[a]:]
	oldA := combined[a][:firstNew[a]]
	newB := combined[b][firstNew[b]:]
	if len(newA) > 0 {
		br := prm.ConnectBoundaryTree(e.s, newA, e.rd.trees[b], e.opts.BoundaryK, e.opts.BoundaryFrontier)
		out.Work.Add(br.Work)
		out.Attempts += br.Attempts
		for _, pr := range br.Edges {
			out.Edges = append(out.Edges, [2]int{firstNew[a] + pr[0], pr[1]})
		}
	}
	if len(oldA) > 0 && len(newB) > 0 {
		br := prm.ConnectBoundary(e.s, oldA, newB, e.opts.BoundaryK, e.opts.BoundaryFrontier)
		out.Work.Add(br.Work)
		out.Attempts += br.Attempts
		for _, pr := range br.Edges {
			out.Edges = append(out.Edges, [2]int{pr[0], firstNew[b] + pr[1]})
		}
	}
	return out.Work
}

// bookPair counts the pair's attempts: every one touched the other
// region's roadmap once.
func (e *PRMEngine) bookPair(idx, _, _ int, remote bool) int {
	attempts := e.rd.brs[idx].Attempts
	if remote {
		e.rd.roadmapRemote += attempts
	}
	return attempts
}

func (e *PRMEngine) commit(int, []float64, []float64) {
	rd := e.rd
	for i := range e.data {
		d, f := &e.data[i], &rd.fresh[i]
		d.nodes, d.tree = rd.combined[i], rd.trees[i]
		d.edges = append(d.edges, f.edges...)
		for _, ed := range f.edges {
			d.weights = append(d.weights, e.s.Distance(d.nodes[ed[0]].Q, d.nodes[ed[1]].Q))
		}
		d.sampleWork.Add(f.sampleWork)
		d.connectWork.Add(f.connectWork)
	}
	for idx := range e.boundary {
		be := &e.boundary[idx]
		na, nb := e.data[be.a].nodes, e.data[be.b].nodes
		be.pairs = append(be.pairs, rd.brs[idx].Edges...)
		for _, pr := range rd.brs[idx].Edges {
			be.weights = append(be.weights, e.s.Distance(na[pr[0]].Q, nb[pr[1]].Q))
		}
	}
	e.roadmapRemote += rd.roadmapRemote
	e.changed = true
	e.rd = nil
}

func (e *PRMEngine) nodeCount(i int) int { return len(e.data[i].nodes) }

// publish wraps the committed structure in a fresh immutable result. A
// round or a repair that changed it gets a newly built roadmap; a repair
// that removed nothing republishes the previous roadmap itself.
func (e *PRMEngine) publish(stats RunStats) {
	res := &PRMResult{RunStats: stats, RoadmapRemote: e.roadmapRemote}
	if e.res != nil && !e.changed {
		res.Roadmap = e.res.Roadmap
	} else {
		res.Roadmap = e.roadmap()
	}
	e.res, e.changed = res, false
}

// roadmap builds the merged roadmap in one sweep: the regions' nodes
// copied into one vertex slice (region-major ids) and the committed
// edges, with the weights stored beside them, handed to the graph's bulk
// constructor region edges first, in region order, then each adjacent
// pair's boundary set. The result shares no storage with the engine
// (compact works in place) and is never written again; the region trees
// it carries for its index are immutable.
func (e *PRMEngine) roadmap() *prm.Roadmap {
	base := e.bases()
	nodes := make([]prm.Node, 0, base[len(e.data)])
	trees := make([]*knn.KDTree, len(e.data))
	spans := make([]graph.EdgeSpan, 0, len(e.data)+len(e.boundary))
	for i := range e.data {
		d := &e.data[i]
		nodes = append(nodes, d.nodes...)
		trees[i] = d.tree
		spans = append(spans, graph.EdgeSpan{BaseA: graph.ID(base[i]), BaseB: graph.ID(base[i]), Ends: d.edges, Weights: d.weights})
	}
	for _, be := range e.boundary {
		spans = append(spans, graph.EdgeSpan{BaseA: graph.ID(base[be.a]), BaseB: graph.ID(base[be.b]), Ends: be.pairs, Weights: be.weights})
	}
	return prm.WithRegionTrees(graph.FromSpans(nodes, spans), trees)
}

// bases returns the merged-roadmap vertex id of each region's first
// node (regions are laid out in order), with the total appended.
func (e *PRMEngine) bases() []int {
	base := make([]int, len(e.data)+1)
	for i := range e.data {
		base[i+1] = base[i] + len(e.data[i].nodes)
	}
	return base
}

// ApplyDelta incrementally repairs the engine's committed roadmap
// against an environment mutation, between growth rounds: every
// region's nodes and local edges re-validate against only the delta,
// then boundary edges, and the survivors are compacted in place (see
// engine.applyDelta for the space, pipeline and cancellation contracts).
//
// candidates, when non-nil, lists the only merged-roadmap vertex ids
// whose validity the delta can have changed, sorted ascending — the
// product of a kd radius query over a committed snapshot's index
// (prm.Index.AffectedVertices). Nil falls back to screening every node
// through the checker's geometric cull.
func (e *PRMEngine) ApplyDelta(s *cspace.Space, d env.Delta, candidates []int, stop <-chan struct{}) (*PRMRepair, error) {
	n := len(e.data)
	rp := &prmRepair{base: e.bases(), rrs: make([]prm.RegionRepair, n), brs: make([]boundaryRepair, len(e.boundary))}
	if candidates != nil {
		// Split the global list into per-region local indices. Regions
		// without candidates get a non-nil empty list: nothing to re-check.
		rp.localCand = make([][]int, n)
		for i := range rp.localCand {
			rp.localCand[i] = []int{}
		}
		ri := 0
		for _, c := range candidates {
			for ri < n-1 && c >= rp.base[ri+1] {
				ri++
			}
			rp.localCand[ri] = append(rp.localCand[ri], c-rp.base[ri])
		}
	}
	e.rp = rp
	st, err := e.applyDelta(s, d, stop)
	e.rp = nil
	if err != nil {
		return nil, err
	}
	return &PRMRepair{Stats: st, VertexRemap: rp.remap, TouchedVertices: rp.touched}, nil
}

func (e *PRMEngine) repairTask(_ *cspace.Space, dc *cspace.DeltaChecker, i int) work.Task {
	rp, d := e.rp, &e.data[i]
	return work.Task{
		ID:      i,
		Payload: len(d.nodes),
		Run: func() float64 {
			var cand []int
			if rp.localCand != nil {
				cand = rp.localCand[i]
			}
			rp.rrs[i] = prm.RevalidateRegion(dc, d.nodes, d.edges, cand)
			return e.opts.Cost.Time(rp.rrs[i].Work)
		},
	}
}

func (e *PRMEngine) connectors() []int {
	regions := make([]int, len(e.boundary))
	for idx, be := range e.boundary {
		regions[idx] = be.a
	}
	return regions
}

// recheckConnector re-validates one pair's boundary edge set: an edge dies
// with either endpoint, or when the delta now blocks it.
func (e *PRMEngine) recheckConnector(dc *cspace.DeltaChecker, idx int) cspace.Counters {
	be, rrs := e.boundary[idx], e.rp.rrs
	br := boundaryRepair{keep: make([]bool, len(be.pairs))}
	var sc cspace.Scratch
	for k, pr := range be.pairs {
		if !rrs[be.a].Alive[pr[0]] || !rrs[be.b].Alive[pr[1]] {
			br.RemovedEdges++
			continue
		}
		qa := e.data[be.a].nodes[pr[0]].Q
		qb := e.data[be.b].nodes[pr[1]].Q
		if !dc.EdgeAffected(qa, qb) {
			br.keep[k] = true
			continue
		}
		br.CheckedEdges++
		if dc.EdgeStillFreeS(qa, qb, &sc, &br.Work) {
			br.keep[k] = true
		} else {
			br.RemovedEdges++
		}
	}
	e.rp.brs[idx] = br
	return br.Work
}

// commitRepair folds the repair's counts into st and, when anything
// died, compacts the committed structure. A repair that removed nothing
// leaves the nodes and edges — and so the published roadmap — as they
// are, and its remap nil (the identity).
func (e *PRMEngine) commitRepair(st *RepairStats) {
	rp := e.rp
	for _, rr := range rp.rrs {
		st.Add(rr.RepairStats)
	}
	for _, br := range rp.brs {
		st.Add(br.RepairStats)
	}
	if st.RemovedNodes > 0 || st.RemovedEdges > 0 {
		e.compact()
	}
}

// compact drops what the open repair found dead from the committed
// structure, in place, gives every region that lost a node a new tree,
// and records the repair's vertex remap (pre-repair id → post-repair id,
// -1 = removed) and the pre-repair ids whose component lost a vertex or
// an edge, ascending.
func (e *PRMEngine) compact() {
	rp := e.rp
	base, rrs := rp.base, rp.rrs
	n := len(e.data)
	remap, touched := make([]int, base[n]), make([]bool, base[n])
	newBase := make([]int, n+1) // bases() after compaction
	for i := range e.data {
		rr, d := rrs[i], &e.data[i]
		w := 0
		for l := range d.nodes {
			if rr.Alive[l] {
				remap[base[i]+l] = newBase[i] + w
				d.nodes[w] = d.nodes[l]
				w++
			} else {
				remap[base[i]+l] = -1
				touched[base[i]+l] = true
			}
		}
		if w < len(d.nodes) {
			d.nodes, d.tree = d.nodes[:w], prm.RegionTree(d.nodes[:w])
		}
		newBase[i+1] = newBase[i] + w

		w = 0
		for j, ed := range d.edges {
			if !rr.KeepEdge[j] {
				// A blocked edge with both endpoints alive splits work
				// onto its component; dead endpoints are touched already.
				if rr.Alive[ed[0]] && rr.Alive[ed[1]] {
					touched[base[i]+ed[0]] = true
				}
				continue
			}
			d.edges[w] = [2]int{remap[base[i]+ed[0]] - newBase[i], remap[base[i]+ed[1]] - newBase[i]}
			d.weights[w] = d.weights[j]
			w++
		}
		d.edges, d.weights = d.edges[:w], d.weights[:w]
	}
	for idx := range e.boundary {
		be, br := &e.boundary[idx], rp.brs[idx]
		w := 0
		for k, pr := range be.pairs {
			if br.keep[k] {
				be.pairs[w] = [2]int{remap[base[be.a]+pr[0]] - newBase[be.a], remap[base[be.b]+pr[1]] - newBase[be.b]}
				be.weights[w] = be.weights[k]
				w++
			} else if rrs[be.a].Alive[pr[0]] && rrs[be.b].Alive[pr[1]] {
				touched[base[be.a]+pr[0]] = true
			}
		}
		be.pairs, be.weights = be.pairs[:w], be.weights[:w]
	}
	rp.remap = remap
	for v, t := range touched {
		if t {
			rp.touched = append(rp.touched, v)
		}
	}
	e.changed = true
}

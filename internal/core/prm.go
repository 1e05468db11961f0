package core

import (
	"cmp"
	"slices"

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

// prmRegionData is one region's committed nodes — the view of its ids in
// the committed roadmap's vertex slice — with the work they cost. tree,
// over exactly nodes, serves construct, region connection and the
// snapshot's index; gaining or losing nodes brings a new one. The
// region's edges live in the committed roadmap's rows only.
type prmRegionData struct {
	nodes       []prm.Node
	tree        *knn.KDTree
	sampleWork  cspace.Counters
	connectWork cspace.Counters
}

// prmFresh is one region's output of a growth round until commit: its
// new samples and the local edges construct found, indexed into the
// region's combined nodes.
type prmFresh struct {
	nodes                   []prm.Node
	edges                   [][2]int
	sampleWork, connectWork cspace.Counters
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

	// g is the committed roadmap, the only store of its nodes and edges:
	// region-major ids, and row v lists v's neighbours in its own region,
	// then one run per adjacent pair in pair order (segments). A commit
	// derives a new one from its rows; nothing writes it.
	g             *graph.Graph[prm.Node]
	data          []prmRegionData
	segments      [][]int // region i's row runs: i, then its pair partners in pair order
	roadmapRemote int

	rd  *prmRound  // the open growth round's buffers
	rp  *prmRepair // the open repair's buffers
	res *PRMResult // last committed cumulative result
}

// prmRound holds one growth round's output until commit.
type prmRound struct {
	fresh []prmFresh // this round's samples and their new edges
	// verts is the round's vertex slice: every region's committed nodes
	// followed by its fresh ones, region by region. combined[i] is region
	// i's view of it; firstNew[i] indexes the first fresh node.
	verts         []prm.Node
	combined      [][]prm.Node
	firstNew      []int
	trees         []*knn.KDTree        // over combined[i], set by construct
	brs           []prm.BoundaryResult // per adjacent pair
	roadmapRemote int
}

// prmRepair holds one ApplyDelta's output until commit.
type prmRepair struct {
	base []int // merged-roadmap id of each region's first node
	cand []int // ApplyDelta's candidates
	rrs  []prm.RegionRepair
	brs  []prm.RegionRepair // per adjacent pair
	// remap and touched are the committed repair's PRMRepair.VertexRemap
	// and TouchedVertices.
	remap, touched []int
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
		g:      graph.NewRowBuilder[prm.Node](nil, 0).Graph(),
		data:   make([]prmRegionData, rg.NumRegions()),
	}
	e.constructSalt = saltPRMConstruct
	e.connectorPhase = "repair-boundary"
	e.pairOnEitherOwner = true
	e.setup(s, opts, rg, e)
	e.segments = make([][]int, len(e.data))
	for i := range e.segments {
		e.segments[i] = []int{i}
	}
	for _, pr := range e.pairs {
		e.segments[pr[0]] = append(e.segments[pr[0]], pr[1])
		e.segments[pr[1]] = append(e.segments[pr[1]], pr[0])
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
	rd := &prmRound{fresh: make([]prmFresh, n), brs: make([]prm.BoundaryResult, len(e.pairs))}
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

	counts, total := make([]int, n), e.g.NumVertices()
	for i := range counts {
		counts[i] = len(rd.fresh[i].nodes)
		total += counts[i]
	}
	rd.verts = make([]prm.Node, 0, total)
	rd.combined = make([][]prm.Node, n)
	rd.firstNew, rd.trees = make([]int, n), make([]*knn.KDTree, n)
	for i := 0; i < n; i++ {
		lo := len(rd.verts)
		rd.verts = append(append(rd.verts, e.data[i].nodes...), rd.fresh[i].nodes...)
		rd.combined[i] = rd.verts[lo:len(rd.verts):len(rd.verts)]
		rd.firstNew[i] = len(e.data[i].nodes)
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
	base := make([]int, len(rd.combined)+1)
	for i, nodes := range rd.combined {
		base[i+1] = base[i] + len(nodes)
	}
	e.adopt(e.extend(base), base)
	for i := range e.data {
		d, f := &e.data[i], &rd.fresh[i]
		d.tree = rd.trees[i]
		d.sampleWork.Add(f.sampleWork)
		d.connectWork.Add(f.connectWork)
	}
	e.roadmapRemote += rd.roadmapRemote
	e.rd = nil
}

// extend builds a growth round's roadmap from the committed rows, base[i]
// being region i's first id in it: row v is v's committed row (a fresh
// node has none), its targets moved to their regions' new bases, with the
// round's entries of each segment after that segment's. Segments and
// entries thus lie where graph.FromSpans over every region's edges, then
// every pair's, would place them, and a round weighs only its own edges.
func (e *PRMEngine) extend(base []int) *graph.Graph[prm.Node] {
	rd, old, oldBase := e.rd, e.g, e.bases()
	verts := rd.verts
	// The round's entries as rows over the new ids, in span order. Once
	// filled, row v ends at end[v] and starts where row v-1 ends.
	edges := func(fn func(x, y int)) {
		for i := range rd.fresh {
			for _, ed := range rd.fresh[i].edges {
				fn(base[i]+ed[0], base[i]+ed[1])
			}
		}
		for idx, pr := range e.pairs {
			for _, ed := range rd.brs[idx].Edges {
				fn(base[pr[0]]+ed[0], base[pr[1]]+ed[1])
			}
		}
	}
	end := make([]int32, len(verts)+1)
	edges(func(x, y int) { end[x+1]++; end[y+1]++ })
	for v := range verts {
		end[v+1] += end[v]
	}
	to, w := make([]graph.ID, end[len(verts)]), make([]float64, end[len(verts)])
	edges(func(x, y int) {
		d := e.s.Distance(verts[x].Q, verts[y].Q)
		to[end[x]], w[end[x]] = graph.ID(y), d
		end[x]++
		to[end[y]], w[end[y]] = graph.ID(x), d
		end[y]++
	})

	b := graph.NewRowBuilder(verts, 2*old.NumEdges()+len(to))
	start := int32(0)
	for i, segs := range e.segments {
		for l := range rd.combined[i] {
			v := base[i] + l
			var ot []graph.ID
			var ow []float64
			if l < rd.firstNew[i] {
				ot, ow = old.Neighbors(graph.ID(oldBase[i] + l))
			}
			nt, nw := to[start:end[v]], w[start:end[v]]
			start = end[v]
			for _, r := range segs {
				lo, hi, shift := graph.ID(oldBase[r]), graph.ID(oldBase[r+1]), graph.ID(base[r]-oldBase[r])
				for ; len(ot) > 0 && lo <= ot[0] && ot[0] < hi; ot, ow = ot[1:], ow[1:] {
					b.Add(ot[0]+shift, ow[0])
				}
				lo, hi = graph.ID(base[r]), graph.ID(base[r+1])
				for ; len(nt) > 0 && lo <= nt[0] && nt[0] < hi; nt, nw = nt[1:], nw[1:] {
					b.Add(nt[0], nw[0])
				}
			}
			b.EndRow()
		}
	}
	return b.Graph()
}

// adopt commits g, whose region i starts at id base[i]: every region's
// nodes become the view of its ids in g's vertex slice.
func (e *PRMEngine) adopt(g *graph.Graph[prm.Node], base []int) {
	verts := g.Vertices()
	for i := range e.data {
		e.data[i].nodes = verts[base[i]:base[i+1]:base[i+1]]
	}
	e.g = g
}

func (e *PRMEngine) nodeCount(i int) int { return len(e.data[i].nodes) }

// publish wraps the committed roadmap, with the regions' trees, in a
// fresh immutable result; a repair that removed nothing republishes the
// previous roadmap itself.
func (e *PRMEngine) publish(stats RunStats) {
	res := &PRMResult{RunStats: stats, RoadmapRemote: e.roadmapRemote}
	if e.res != nil && e.res.Roadmap.G == e.g {
		res.Roadmap = e.res.Roadmap
	} else {
		trees := make([]*knn.KDTree, len(e.data))
		for i := range e.data {
			trees[i] = e.data[i].tree
		}
		res.Roadmap = prm.WithRegionTrees(e.g, trees)
	}
	e.res = res
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
// then boundary edges, and the survivors are published by filtering the
// committed rows (see engine.applyDelta for the space, pipeline and
// cancellation contracts).
//
// candidates, when non-nil, lists the only merged-roadmap vertex ids
// whose validity the delta can have changed, sorted ascending — the
// product of a kd radius query over a committed snapshot's index
// (prm.Index.AffectedVertices). Nil falls back to screening every node
// through the checker's geometric cull.
func (e *PRMEngine) ApplyDelta(s *cspace.Space, d env.Delta, candidates []int, stop <-chan struct{}) (*PRMRepair, error) {
	n := len(e.data)
	rp := &prmRepair{base: e.bases(), cand: candidates, rrs: make([]prm.RegionRepair, n), brs: make([]prm.RegionRepair, len(e.pairs))}
	e.rp = rp
	st, err := e.applyDelta(s, d, stop)
	e.rp = nil
	if err != nil {
		return nil, err
	}
	return &PRMRepair{Stats: st, VertexRemap: rp.remap, TouchedVertices: rp.touched}, nil
}

// missed reports that dc invalidates nothing among the committed nodes of
// regions a and b (a = b: one region) and the edges between them: the
// hull of their nodes' bounding boxes misses its cull
// (cspace.DeltaChecker.HullAffected). A region without nodes has
// nothing to invalidate.
func (e *PRMEngine) missed(dc *cspace.DeltaChecker, a, b int) bool {
	if len(e.data[a].nodes) == 0 || len(e.data[b].nodes) == 0 {
		return true
	}
	ba, okA := e.data[a].tree.Bounds()
	bb, okB := e.data[b].tree.Bounds()
	return okA && okB && !dc.HullAffected(ba, bb)
}

func (e *PRMEngine) repairTask(_ *cspace.Space, dc *cspace.DeltaChecker, i int) work.Task {
	rp := e.rp
	return work.Task{
		ID:      i,
		Payload: len(e.data[i].nodes),
		Run: func() float64 {
			if !e.missed(dc, i, i) {
				rp.rrs[i] = prm.RevalidateRegion(dc, e.g, rp.base[i], rp.base[i+1], rp.cand)
			}
			return e.opts.Cost.Time(rp.rrs[i].Work)
		},
	}
}

func (e *PRMEngine) connectors() []int {
	regions := make([]int, len(e.pairs))
	for idx, pr := range e.pairs {
		regions[idx] = pr[0]
	}
	return regions
}

// recheckConnector re-validates one pair's committed edges: an edge dies
// with either endpoint, or when the delta now blocks it.
func (e *PRMEngine) recheckConnector(dc *cspace.DeltaChecker, idx int) cspace.Counters {
	rp, a, b := e.rp, e.pairs[idx][0], e.pairs[idx][1]
	if !e.missed(dc, a, b) {
		rp.brs[idx].RecheckEdges(dc, e.g, rp.base[a], rp.base[a+1], rp.base[b], rp.base[b+1], rp.rrs[a].Dead, rp.rrs[b].Dead)
	}
	return rp.brs[idx].Work
}

// commitRepair folds the repair's counts into st and, when anything
// died, publishes the filtered rows. A repair that removed nothing
// leaves the committed roadmap as it is, and its remap nil (the
// identity).
func (e *PRMEngine) commitRepair(st *RepairStats) {
	rp := e.rp
	for _, rr := range rp.rrs {
		st.Add(rr.RepairStats)
	}
	for _, br := range rp.brs {
		st.Add(br.RepairStats)
	}
	if st.RemovedNodes > 0 || st.RemovedEdges > 0 {
		e.filter(st)
	}
}

// filter commits the open repair, which removed what st counts, by
// filtering the committed rows: survivors keep their order, and their
// rows every entry to a survivor that no blocked edge names, relabelled.
// Every region that lost a node gets a new tree. It records the repair's
// vertex remap (pre-repair id → post-repair id, -1 = removed) and the
// pre-repair ids whose component lost a vertex or an edge, ascending.
func (e *PRMEngine) filter(st *RepairStats) {
	rp, old := e.rp, e.g
	remap := make([]int, old.NumVertices())
	var touched []int
	var cut [][2]graph.ID // blocked entries, both directions, by row
	for _, rrs := range [][]prm.RegionRepair{rp.rrs, rp.brs} {
		for _, rr := range rrs {
			for _, v := range rr.Dead {
				remap[v] = -1
				touched = append(touched, int(v))
			}
			for _, ed := range rr.Blocked {
				cut = append(cut, ed, [2]graph.ID{ed[1], ed[0]})
				touched = append(touched, int(ed[0]))
			}
		}
	}
	slices.SortFunc(cut, func(x, y [2]graph.ID) int { return cmp.Compare(x[0], y[0]) })
	slices.Sort(touched)
	rp.remap, rp.touched = remap, slices.Compact(touched)

	verts := make([]prm.Node, 0, len(remap)-st.RemovedNodes)
	for v := range remap {
		if remap[v] == 0 {
			remap[v] = len(verts)
			verts = append(verts, old.Vertex(graph.ID(v)))
		}
	}
	b := graph.NewRowBuilder(verts, 2*(old.NumEdges()-st.RemovedEdges))
	for v, nv := range remap {
		if nv < 0 {
			continue
		}
		var blocked []graph.ID
		for ; len(cut) > 0 && cut[0][0] == graph.ID(v); cut = cut[1:] {
			blocked = append(blocked, cut[0][1])
		}
		to, w := old.Neighbors(graph.ID(v))
		for j, u := range to {
			if remap[u] >= 0 && !slices.Contains(blocked, u) {
				b.Add(graph.ID(remap[u]), w[j])
			}
		}
		b.EndRow()
	}
	base := make([]int, len(e.data)+1)
	for i := range e.data {
		base[i+1] = base[i] + len(e.data[i].nodes) - len(rp.rrs[i].Dead)
	}
	e.adopt(b.Graph(), base)
	for i := range e.data {
		if len(rp.rrs[i].Dead) > 0 {
			e.data[i].tree = prm.RegionTree(e.data[i].nodes)
		}
	}
}

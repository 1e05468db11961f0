package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/prm"
	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// extractPathSequential is TreeIndex.ExtractPath as it was when goal
// attach ran the sequential LocalPlan per candidate, kept verbatim as the
// reference the batched attach is tested against.
func extractPathSequential(ix *TreeIndex, s *cspace.Space, goal cspace.Config, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(goal, c) {
		return nil, false
	}
	n := len(ix.pts)
	if n == 0 {
		return nil, false
	}
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
			if !s.LocalPlan(branch.Nodes[rf.node].Q, goal, c) {
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

// TestExtractPathMatchesSequential: the three local-plan orders accept
// and reject the same edges, so the first nearest-first candidate the
// batched attach accepts is the one the sequential attach accepted, and
// the path is the same. Every tree planner on four scenes after one to
// three rounds, 64 goals each (uniform draws — free, in collision,
// unreachable — and the root itself), plus a Dubins RRT for the steered
// fallback. The kNN work and the number of local plans are the same too;
// only what a rejected candidate costs may differ.
func TestExtractPathMatchesSequential(t *testing.T) {
	type engine struct {
		name  string
		s     *cspace.Space
		root  cspace.Config
		build func(s *cspace.Space, root cspace.Config, opts Options) (*RRTEngine, error)
		star  bool
	}
	var engines []engine
	for _, name := range []string{"free", "med-cube", "walls", "mixed-30"} {
		s := cspace.NewPointSpace(env.ByName(name))
		root := geom.V(0.1, 0.1, 0.5)
		goal := geom.V(0.9, 0.9, 0.5)
		connect := func(s *cspace.Space, root cspace.Config, opts Options) (*RRTEngine, error) {
			return NewRRTConnectEngine(s, root, goal, opts)
		}
		engines = append(engines,
			engine{"rrt/" + name, s, root, NewRRTEngine, false},
			engine{"rrtstar/" + name, s, root, NewRRTEngine, true},
			engine{"rrtconnect/" + name, s, root, connect, false})
	}
	engines = append(engines, engine{"dubins", cspace.NewDubinsSpace(env.ByName("maze-2d"), 0.06), geom.V(0.1, 0.1, 0), NewRRTEngine, false})

	var attached, invalid, unreachable int
	for i, e := range engines {
		opts := rrtOpts(4, 8)
		opts.NodesPerRegion = 8
		opts.Radius = 0.9
		opts.Star = e.star
		eng, err := e.build(e.s, e.root, opts)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 1 + i%3
		ix := BuildTreeIndex(growRRT(t, eng, rounds))
		r := rng.Derive(7, uint64(i))
		for g := 0; g < 64; g++ {
			goal := e.root
			if g > 0 {
				goal = e.s.SampleIn(e.s.Bounds, r, nil)
			}
			var gotC, wantC cspace.Counters
			got, gotOK := ix.ExtractPath(e.s, goal, &gotC)
			want, wantOK := extractPathSequential(ix, e.s, goal, &wantC)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %d rounds, goal %v: attach %v %v, sequential %v %v", e.name, rounds, goal, gotOK, got, wantOK, want)
			}
			if gotC.KNNQueries != wantC.KNNQueries || gotC.KNNEvals != wantC.KNNEvals || gotC.LPCalls != wantC.LPCalls {
				t.Fatalf("%s after %d rounds, goal %v: counters %+v, sequential %+v", e.name, rounds, goal, gotC, wantC)
			}
			switch {
			case gotOK:
				attached++
			case !e.s.Valid(goal, nil):
				invalid++
			default:
				unreachable++
			}
		}
	}
	if attached == 0 || invalid == 0 || unreachable == 0 {
		t.Fatalf("goal mix not covered: %d attached, %d in collision, %d unreachable", attached, invalid, unreachable)
	}
}

// referenceRoadmap replays the PRM engine's committed storage as it was
// before the engine committed into the rows it publishes: per-region node
// and edge lists, one boundary set per adjacent pair, a repair compacting
// them in place, and a roadmap built by graph.FromSpans over regions +
// pairs spans. A round is read from the engine's round buffers; a repair
// re-validates every committed node and edge through a DeltaChecker of
// its own, screening entry by entry with no cull of its own.
type referenceRoadmap struct {
	pairs    [][2]int
	nodes    [][]prm.Node
	edges    [][][2]int // per region, local indices
	weights  [][]float64
	bound    [][][2]int // per pair: (index into a's nodes, into b's)
	bWeights [][]float64
}

func newReferenceRoadmap(regions int, pairs [][2]int) *referenceRoadmap {
	return &referenceRoadmap{
		pairs: pairs,
		nodes: make([][]prm.Node, regions), edges: make([][][2]int, regions), weights: make([][]float64, regions),
		bound: make([][][2]int, len(pairs)), bWeights: make([][]float64, len(pairs)),
	}
}

// grow appends one committed round: its fresh nodes, its region edges and
// its pairs' edges, each weighed once.
func (r *referenceRoadmap) grow(s *cspace.Space, rd *prmRound) {
	for i := range r.nodes {
		r.nodes[i] = append(r.nodes[i], rd.fresh[i].nodes...)
		for _, ed := range rd.fresh[i].edges {
			r.edges[i] = append(r.edges[i], ed)
			r.weights[i] = append(r.weights[i], s.Distance(r.nodes[i][ed[0]].Q, r.nodes[i][ed[1]].Q))
		}
	}
	for idx, pr := range r.pairs {
		for _, ed := range rd.brs[idx].Edges {
			r.bound[idx] = append(r.bound[idx], ed)
			r.bWeights[idx] = append(r.bWeights[idx], s.Distance(r.nodes[pr[0]][ed[0]].Q, r.nodes[pr[1]][ed[1]].Q))
		}
	}
}

func (r *referenceRoadmap) bases() []int {
	base := make([]int, len(r.nodes)+1)
	for i, nodes := range r.nodes {
		base[i+1] = base[i] + len(nodes)
	}
	return base
}

// repair re-validates everything against d in s (the pre-repair space),
// compacts the survivors in place and returns what ApplyDelta must
// report: the counts (Makespan aside), the vertex remap (nil when nothing
// died) and the touched pre-repair ids, ascending.
func (r *referenceRoadmap) repair(s *cspace.Space, d env.Delta) PRMRepair {
	out := PRMRepair{Stats: RepairStats{Deltas: 1}}
	dc := cspace.NewDeltaChecker(s, d)
	if !dc.Invalidating() {
		return out
	}
	st, base := &out.Stats, r.bases()
	alive := make([][]bool, len(r.nodes))
	for i, nodes := range r.nodes {
		alive[i] = make([]bool, len(nodes))
		for l, nd := range nodes {
			alive[i][l] = true
			if dc.ConfigAffected(nd.Q) {
				st.CheckedNodes++
				if !dc.ConfigStillFree(nd.Q, &st.Work) {
					alive[i][l] = false
					st.RemovedNodes++
				}
			}
		}
	}
	keep := func(a, la, b, lb int) bool {
		if !alive[a][la] || !alive[b][lb] {
			st.RemovedEdges++
			return false
		}
		qa, qb := r.nodes[a][la].Q, r.nodes[b][lb].Q
		if !dc.EdgeAffected(qa, qb) {
			return true
		}
		st.CheckedEdges++
		if dc.EdgeStillFree(qa, qb, &st.Work) {
			return true
		}
		st.RemovedEdges++
		return false
	}
	keepEdge, keepBound := make([][]bool, len(r.nodes)), make([][]bool, len(r.pairs))
	for i, edges := range r.edges {
		for _, ed := range edges {
			keepEdge[i] = append(keepEdge[i], keep(i, ed[0], i, ed[1]))
		}
	}
	for idx, pr := range r.pairs {
		for _, ed := range r.bound[idx] {
			keepBound[idx] = append(keepBound[idx], keep(pr[0], ed[0], pr[1], ed[1]))
		}
	}
	if st.RemovedNodes == 0 && st.RemovedEdges == 0 {
		return out
	}

	n := len(r.nodes)
	remap, touched := make([]int, base[n]), make([]bool, base[n])
	newBase := make([]int, n+1)
	for i := range r.nodes {
		w := 0
		for l := range r.nodes[i] {
			if alive[i][l] {
				remap[base[i]+l] = newBase[i] + w
				r.nodes[i][w] = r.nodes[i][l]
				w++
			} else {
				remap[base[i]+l], touched[base[i]+l] = -1, true
			}
		}
		r.nodes[i] = r.nodes[i][:w]
		newBase[i+1] = newBase[i] + w
		w = 0
		for j, ed := range r.edges[i] {
			if !keepEdge[i][j] {
				if alive[i][ed[0]] && alive[i][ed[1]] {
					touched[base[i]+ed[0]] = true
				}
				continue
			}
			r.edges[i][w] = [2]int{remap[base[i]+ed[0]] - newBase[i], remap[base[i]+ed[1]] - newBase[i]}
			r.weights[i][w] = r.weights[i][j]
			w++
		}
		r.edges[i], r.weights[i] = r.edges[i][:w], r.weights[i][:w]
	}
	for idx, pr := range r.pairs {
		a, b, w := pr[0], pr[1], 0
		for k, ed := range r.bound[idx] {
			if keepBound[idx][k] {
				r.bound[idx][w] = [2]int{remap[base[a]+ed[0]] - newBase[a], remap[base[b]+ed[1]] - newBase[b]}
				r.bWeights[idx][w] = r.bWeights[idx][k]
				w++
			} else if alive[a][ed[0]] && alive[b][ed[1]] {
				touched[base[a]+ed[0]] = true
			}
		}
		r.bound[idx], r.bWeights[idx] = r.bound[idx][:w], r.bWeights[idx][:w]
	}
	out.VertexRemap = remap
	for v, tv := range touched {
		if tv {
			out.TouchedVertices = append(out.TouchedVertices, v)
		}
	}
	return out
}

// graph builds the roadmap the replay publishes: the regions' nodes in
// region order, and FromSpans over the regions' edges, then each pair's.
func (r *referenceRoadmap) graph() *graph.Graph[prm.Node] {
	base := r.bases()
	verts := make([]prm.Node, 0, base[len(r.nodes)])
	var spans []graph.EdgeSpan
	for i, nodes := range r.nodes {
		verts = append(verts, nodes...)
		spans = append(spans, graph.EdgeSpan{BaseA: graph.ID(base[i]), BaseB: graph.ID(base[i]), Ends: r.edges[i], Weights: r.weights[i]})
	}
	for idx, pr := range r.pairs {
		spans = append(spans, graph.EdgeSpan{BaseA: graph.ID(base[pr[0]]), BaseB: graph.ID(base[pr[1]]), Ends: r.bound[idx], Weights: r.bWeights[idx]})
	}
	return graph.FromSpans(verts, spans)
}

// assertSameRows fails unless got and want hold the same vertices and
// the same rows: targets, weight bits and order.
func assertSameRows(t *testing.T, ctx string, got, want *graph.Graph[prm.Node]) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: published %v, reference %v", ctx, got, want)
	}
	for v := 0; v < got.NumVertices(); v++ {
		id := graph.ID(v)
		if !reflect.DeepEqual(got.Vertex(id), want.Vertex(id)) {
			t.Fatalf("%s: vertex %d is %v, reference %v", ctx, v, got.Vertex(id), want.Vertex(id))
		}
		gt, gw := got.Neighbors(id)
		wt, ww := want.Neighbors(id)
		same := slices.Equal(gt, wt)
		for k := 0; same && k < len(gw); k++ {
			same = math.Float64bits(gw[k]) == math.Float64bits(ww[k])
		}
		if !same {
			t.Fatalf("%s: row %d is %v %v, reference %v %v", ctx, v, gt, gw, wt, ww)
		}
	}
}

// referenceTap is an Options.Runtime decorator that remembers the PRM
// engine's open growth round at every replay, so that the round's
// buffers can be read once it committed, and, when armed, stops the
// operation as its k-th replay from arm starts.
type referenceTap struct {
	e    *PRMEngine
	rd   *prmRound
	n, k int
	stop chan struct{}
}

func (r *referenceTap) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	r.rd = r.e.rd
	if r.n++; r.n == r.k {
		close(r.stop)
	}
	return dist.Runtime.Run(cfg, queues)
}

// arm makes the k-th replay from now stop the operation (k = 0: none).
func (r *referenceTap) arm(k int) <-chan struct{} {
	r.n, r.k, r.stop = 0, k, make(chan struct{})
	return r.stop
}

// randomDelta mutates a clone of world: it removes or moves a random
// obstacle, or adds a random box, and returns the clone with the delta.
func randomDelta(world *env.Environment, r *rng.Stream) (*env.Environment, env.Delta) {
	w, dim := world.Clone(), world.Dim()
	for {
		var d env.Delta
		var err error
		switch k := r.Intn(4); {
		case k == 0 && len(w.Obstacles) > 0:
			d, err = w.RemoveObstacle(r.Intn(len(w.Obstacles)))
		case k == 1 && len(w.Obstacles) > 0:
			dv := make(geom.Vec, dim)
			for j := range dv {
				dv[j] = r.Range(-0.15, 0.15)
			}
			d, err = w.MoveObstacle(r.Intn(len(w.Obstacles)), dv)
		default:
			lo, hi := make(geom.Vec, dim), make(geom.Vec, dim)
			for j := range lo {
				b := w.Bounds
				lo[j] = r.Range(b.Lo[j], b.Hi[j])
				hi[j] = min(lo[j]+r.Range(0.02, 0.25)*(b.Hi[j]-b.Lo[j]), b.Hi[j])
			}
			d, err = w.AddObstacle(env.BoxObstacle{Box: geom.NewAABB(lo, hi)})
		}
		if err == nil {
			return w, d
		}
	}
}

// runReferenceHistory drives one PRM engine over world through ops and
// holds it to the reference replay after every operation: the published
// rows, every published vertex and edge re-checked in that epoch's world,
// and every committed repair's counts, remap and touched ids. An op byte
// b picks by b%5: grow (0, 1); mutate (2), with kd candidates when b&8 is
// set; a round stopped at its (1 + b/8%3)-th replay (3); a repair stopped
// at its (1 + b/8%2)-th (4). A stop that never fires commits, and is
// checked like any commit. It returns the engine.
func runReferenceHistory(t *testing.T, s *cspace.Space, opts Options, ops []byte) *PRMEngine {
	t.Helper()
	tap := &referenceTap{}
	opts.Runtime = tap
	e, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	tap.e = e
	ref := newReferenceRoadmap(e.rg.NumRegions(), e.pairs)
	world := s.Env
	for k, b := range ops {
		ctx := fmt.Sprintf("op %d (%d) of %v", k, b, ops)
		res := e.Result()
		switch b % 5 {
		case 0, 1, 3:
			stop := tap.arm(0)
			if b%5 == 3 {
				stop = tap.arm(1 + int(b/8)%3)
			}
			tap.rd = nil
			switch err := e.GrowRound(stop); err {
			case nil:
				ref.grow(e.s, tap.rd)
			case ErrStopped:
				if e.Result() != res {
					t.Fatalf("%s: stopped round replaced the result", ctx)
				}
			default:
				t.Fatal(err)
			}
		case 2, 4:
			mutated, d := randomDelta(world, rng.Derive(uint64(b), uint64(k)))
			stop := tap.arm(0)
			if b%5 == 4 {
				stop = tap.arm(1 + int(b/8)%2)
			}
			var cand []int
			if b&8 != 0 {
				cand = prm.BuildIndex(res.Roadmap).AffectedVertices(cspace.NewDeltaChecker(e.s, d))
				if cand == nil {
					cand = []int{}
				}
			}
			pre := e.s
			got, err := e.ApplyDelta(pre.WithEnv(mutated), d, cand, stop)
			switch err {
			case nil:
				want := ref.repair(pre, d)
				got.Stats.Makespan = 0
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("%s: repair\n got  %+v\n want %+v", ctx, *got, want)
				}
				world = mutated
			case ErrStopped:
				if e.Result() != res {
					t.Fatalf("%s: stopped repair replaced the result", ctx)
				}
			default:
				t.Fatal(err)
			}
		}
		m := e.Result().Roadmap
		assertSameRows(t, ctx, m.G, ref.graph())
		assertRoadmapValid(t, e.s, m)
	}
	return e
}

// referenceOps draws a random op sequence of length n.
func referenceOps(r *rng.Stream, n int) []byte {
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(r.Uint64())
	}
	return ops
}

// TestCommittedRowsMatchReference grows, repairs and aborts random
// histories, under repartitioning on the warehouse and under work
// stealing on the cube, and holds every published roadmap to the replay
// of the storage the engine kept before it committed into its rows.
func TestCommittedRowsMatchReference(t *testing.T) {
	wh, _ := env.WarehouseForkliftMoves()
	repart := quickOpts(4, 16)
	repart.SamplesPerRegion, repart.Strategy = 10, Repartition
	stealing := quickOpts(4, 27)
	stealing.SamplesPerRegion, stealing.Strategy, stealing.Policy = 6, WorkStealing, steal.Hybrid{K: 2}
	stealing.HostWorkers = hostWorkers()
	cases := []struct {
		name string
		s    *cspace.Space
		opts Options
	}{
		{"repartition/warehouse-forklift", cspace.NewPointSpace(wh), repart},
		{"stealing/med-cube", cspace.NewPointSpace(env.MedCube()), stealing},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/%d", c.name, seed), func(t *testing.T) {
				opts := c.opts
				opts.Seed = seed
				runReferenceHistory(t, c.s, opts, referenceOps(rng.New(seed), 20))
			})
		}
	}
}

// FuzzCommittedRowsMatchReference runs runReferenceHistory over fuzzed
// op sequences (at most 12 ops) on the warehouse under work stealing.
func FuzzCommittedRowsMatchReference(f *testing.F) {
	f.Add([]byte{0, 2, 1, 10, 3, 4, 0, 12})
	f.Add([]byte{3, 11, 19, 0, 4, 12, 2, 2})
	wh, _ := env.WarehouseForkliftMoves()
	s := cspace.NewPointSpace(wh)
	opts := quickOpts(4, 16)
	opts.SamplesPerRegion, opts.Strategy, opts.Policy = 8, WorkStealing, steal.Hybrid{K: 2}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		runReferenceHistory(t, s, opts, ops)
	})
}

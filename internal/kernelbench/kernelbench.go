// Package kernelbench measures the repository's hot compute kernels —
// sampling, collision checking, nearest-neighbour queries, region
// connection, snapshot queries and the snapshot commit path (bulk graph
// build, index build) — and emits machine-readable results for the CI
// benchmark-regression gate.
//
// The kernel bodies live in normal (non-test) code so that
// `mpbench -kernels` can run them from a plain binary via
// testing.Benchmark; `go test -bench Kernel` runs the same bodies through
// this package's BenchmarkKernel, so there is one suite. (The three
// BenchmarkKernel* left in internal/knn time what the suite does not: the
// allocating Nearest, and Build / BuildParallel where the suite times
// Reset.) Allocation counts are the contract: the pooled kernels are
// expected to stay at (near) zero allocs/op, and CI fails when any
// kernel regresses above its threshold.
package kernelbench

import (
	"sort"
	"sync"
	"testing"

	"parmp/internal/bench"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/prm"
	"parmp/internal/rng"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ItemsPerOp is how many logical items (configurations, edges, kNN
	// queries) one op processes; NsPerItem = NsPerOp / ItemsPerOp. Batch
	// kernels amortize per-call overhead over many items, so per-item
	// time — not per-op time — is what the batch regression gate compares
	// against the scalar counterpart.
	ItemsPerOp int     `json:"items_per_op"`
	NsPerItem  float64 `json:"ns_per_item"`
}

// Kernel names a benchmark body runnable via testing.Benchmark. Items is
// the number of logical items one benchmark op processes (0 = 1).
type Kernel struct {
	Name  string
	Items int
	Bench func(b *testing.B)
}

// Kernels returns the canonical kernel suite, sorted by name.
func Kernels() []Kernel {
	ks := []Kernel{
		{Name: "ConnectRegion", Bench: benchConnectRegion},
		{Name: "ConnectBoundary", Bench: benchConnectBoundary},
		{Name: "GraphBulkBuild", Bench: benchGraphBulkBuild},
		{Name: "IndexBuild", Bench: benchIndexBuild},
		{Name: "IndexQuery", Bench: benchIndexQuery},
		{Name: "LocalPlan", Bench: benchLocalPlan},
		{Name: "LocalPlanBatch", Bench: benchLocalPlanBatch},
		{Name: "LocalPlanRigid", Bench: benchLocalPlanEdges(rigidBenchSpace, 0.08, false)},
		{Name: "LocalPlanBatchRigid", Bench: benchLocalPlanEdges(rigidBenchSpace, 0.08, true)},
		{Name: "LocalPlanLinkage", Bench: benchLocalPlanEdges(linkageBenchSpace, 0.2, false)},
		{Name: "LocalPlanBatchLinkage", Bench: benchLocalPlanEdges(linkageBenchSpace, 0.2, true)},
		{Name: "NearestInto", Bench: benchNearestInto},
		{Name: "NearestBatch", Items: batchQueries, Bench: benchNearestBatch},
		{Name: "DynamicNearest", Bench: benchDynamicNearest},
		{Name: "KDTreeBuild", Bench: benchKDTreeBuild},
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// RunAll benchmarks every kernel and returns the results in suite order.
func RunAll() []Result {
	ks := Kernels()
	out := make([]Result, 0, len(ks))
	for _, k := range ks {
		r := testing.Benchmark(k.Bench)
		items := k.Items
		if items <= 0 {
			items = 1
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		out = append(out, Result{
			Name:        k.Name,
			Iterations:  r.N,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			ItemsPerOp:  items,
			NsPerItem:   ns / float64(items),
		})
	}
	return out
}

// MaxAllocs is the allocs/op ceiling every kernel must stay under: the
// pooled kernels sit at 0–2 (a snapshot query returns two) and the
// commit-side builds at 4–14, while a per-node or per-probe allocation
// runs to thousands.
const MaxAllocs = 50

// BatchMaxRatio bounds each batched kernel's per-item time relative to
// its scalar counterpart's (1.15 = at most 15 % slower per item):
// batching must never be a tax. The ratio is machine-independent — both
// sides run on the same host in the same process — so the gate needs no
// stored baseline.
const BatchMaxRatio = 1.15

// batchPairs maps each batched kernel to its scalar counterpart. Both
// sides of a pair process the same inputs (the scalar kernel one item
// per op, the batch kernel the whole set), so per-item times are
// directly comparable on any machine.
var batchPairs = []struct{ batch, scalar string }{
	{"LocalPlanBatch", "LocalPlan"},
	{"LocalPlanBatchRigid", "LocalPlanRigid"},
	{"LocalPlanBatchLinkage", "LocalPlanLinkage"},
	{"NearestBatch", "NearestInto"},
}

// Check is the CI kernel gate: every kernel within MaxAllocs, every
// batch pair within BatchMaxRatio. A pair with a side missing from rs is
// skipped, so a partial run gates what it ran.
func Check(rs []Result) error {
	byName := make(map[string]Result, len(rs))
	var limits []bench.Limit
	for _, r := range rs {
		byName[r.Name] = r
		limits = append(limits, bench.Limit{Name: r.Name + " allocs/op",
			Cur: float64(r.AllocsPerOp), Ref: MaxAllocs, Kind: bench.Ceiling})
	}
	for _, p := range batchPairs {
		b, okB := byName[p.batch]
		s, okS := byName[p.scalar]
		if okB && okS {
			limits = append(limits, bench.Limit{Name: p.batch + " ns/item vs " + p.scalar,
				Cur: b.NsPerItem, Ref: s.NsPerItem, Kind: bench.Regress, Tol: BatchMaxRatio - 1})
		}
	}
	return bench.Check("kernel gate", limits)
}

func benchConnectRegion(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	nodes, _ := prm.SampleRegion(s, s.Bounds, 0, prm.Params{SamplesPerRegion: 200}, rng.New(7))
	p := prm.Params{K: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.ConnectRegion(s, nodes, p)
	}
}

func benchConnectBoundary(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	all, _ := prm.SampleRegion(s, s.Bounds, 0, prm.Params{SamplesPerRegion: 240}, rng.New(7))
	half := len(all) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.ConnectBoundary(s, all[:half], all[half:], 4, 16)
	}
}

// Fixture sizes: both sides of a local-plan pair cycle through the same
// batchEdges edges, one per op; NearestBatch answers batchQueries
// queries per op, NearestInto one.
const (
	batchEdges   = 16
	batchQueries = 64
)

// freeConfigs rejection-samples n collision-free configurations.
func freeConfigs(s *cspace.Space, n int, seed uint64) []cspace.Config {
	r := rng.New(seed)
	var sc cspace.Scratch
	var c cspace.Counters
	out := make([]cspace.Config, 0, n)
	for len(out) < n {
		q := s.SampleIn(s.Bounds, r, nil)
		if s.ValidS(q, &sc, &c) {
			out = append(out, q)
		}
	}
	return out
}

func rigidBenchSpace() *cspace.Space {
	return cspace.NewRigidBodySpace(env.MedCube(), cspace.NewRigidBox(0.03, 0.02, 0.01))
}

func linkageBenchSpace() *cspace.Space {
	l := cspace.Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1, 0.08, 0.06}}
	return cspace.NewLinkageSpace(env.Maze2D(4, 0.2), l)
}

// benchLocalPlanEdges times one local plan per op, through the batch or
// the bisection order, over batchEdges free edges of the space (each
// coordinate of an edge's end within reach of its start), so no plan
// fails fast and both orders run every check of the edges PRM connects.
func benchLocalPlanEdges(space func() *cspace.Space, reach float64, batch bool) func(*testing.B) {
	return func(b *testing.B) {
		s := space()
		var sc cspace.Scratch
		var bt cspace.Batch
		var c cspace.Counters
		r := rng.New(13)
		var edges [][2]cspace.Config
		for len(edges) < batchEdges {
			qa := s.SampleIn(s.Bounds, r, nil)
			qb := qa.Clone()
			for k := range qb {
				qb[k] += r.Range(-reach, reach)
			}
			if s.ValidS(qa, &sc, nil) && s.ValidS(qb, &sc, nil) && s.LocalPlanS(qa, qb, &sc, nil) {
				edges = append(edges, [2]cspace.Config{qa, qb})
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			if batch {
				s.LocalPlanBatch(e[0], e[1], &bt, &c)
			} else {
				s.LocalPlanS(e[0], e[1], &sc, &c)
			}
		}
	}
}

// localPlanEdge is a free edge of the med-cube point space (it skirts
// the central cube), so both local planners sweep the full resolution —
// the accepted-edge hot path that dominates PRM connection cost.
func localPlanEdge() (geom.Vec, geom.Vec) {
	return geom.V(0.05, 0.05, 0.05), geom.V(0.1, 0.9, 0.1)
}

func benchLocalPlan(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	var c cspace.Counters
	var sc cspace.Scratch
	qa, qb := localPlanEdge()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalPlanS(qa, qb, &sc, &c)
	}
}

func benchLocalPlanBatch(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	var c cspace.Counters
	var bt cspace.Batch
	qa, qb := localPlanEdge()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalPlanBatch(qa, qb, &bt, &c)
	}
}

func randomPoints(r *rng.Stream, n, d int) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		pts[i] = make(geom.Vec, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	return pts
}

func benchNearestInto(b *testing.B) {
	r := rng.New(17)
	pts := randomPoints(r, 1000, 3)
	tree := knn.Build(pts)
	qs := randomPoints(r, 64, 3)
	var sc knn.QueryScratch
	var dst []knn.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tree.NearestInto(&sc, qs[i%len(qs)], 8, -1, dst[:0])
	}
}

func benchNearestBatch(b *testing.B) {
	r := rng.New(17)
	pts := randomPoints(r, 1000, 3)
	tree := knn.Build(pts)
	qs := randomPoints(r, batchQueries, 3)
	var sc knn.QueryScratch
	var dst []knn.Result
	var offs []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, offs, _ = tree.NearestBatch(&sc, qs, 8, -1, dst[:0], offs)
	}
}

func benchDynamicNearest(b *testing.B) {
	r := rng.New(19)
	d := knn.NewDynamic()
	for i := 0; i < 5000; i++ {
		d.Add(randomPoints(r, 1, 3)[0])
	}
	qs := randomPoints(r, 64, 3)
	var sc knn.QueryScratch
	var dst []knn.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = d.NearestInto(&sc, qs[i%len(qs)], 8, dst[:0])
	}
}

func benchKDTreeBuild(b *testing.B) {
	r := rng.New(23)
	pts := randomPoints(r, 20000, 3)
	var tree knn.KDTree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Reset(pts)
	}
}

// queryFixture is what the snapshot kernels — query and commit side —
// run on.
type queryFixture struct {
	s  *cspace.Space
	ix *prm.Index
	qs []cspace.Config // IndexQuery pairs the first half with the second
	// What the roadmap was published from, for the commit-side kernels.
	nodes []prm.Node
	spans []graph.EdgeSpan
}

// queryBenchIndex returns the snapshot fixture: a fixed-seed roadmap of
// about 20 000 nodes in med-cube (the size a serving tenant reaches),
// published the way an engine publishes and indexed, with collision-free
// query endpoints. It is built on first use and shared:
// testing.Benchmark calls a kernel once per b.N escalation, and the
// build takes far longer than a query.
var queryBenchIndex = sync.OnceValue(func() queryFixture {
	s := cspace.NewPointSpace(env.MedCube())
	res := prm.BuildRegion(s, s.Bounds, 0, prm.Params{SamplesPerRegion: 26500, K: 8}, rng.New(29))
	weights := make([]float64, len(res.Edges))
	for i, e := range res.Edges {
		weights[i] = s.Distance(res.Nodes[e[0]].Q, res.Nodes[e[1]].Q)
	}
	spans := []graph.EdgeSpan{{Ends: res.Edges, Weights: weights}}
	m := &prm.Roadmap{G: graph.FromSpans(res.Nodes, spans)}
	return queryFixture{s, prm.BuildIndex(m), freeConfigs(s, 32, 31), res.Nodes, spans}
})

// benchGraphBulkBuild is the publish half of a commit: the roadmap graph
// from committed nodes, edges and stored weights. A handful of
// allocations whatever the size; one per row would fail the gate.
func benchGraphBulkBuild(b *testing.B) {
	fx := queryBenchIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.FromSpans(fx.nodes, fx.spans)
	}
}

// benchIndexBuild is the index half of a commit: gather, kd-tree and
// component labels over the published roadmap.
func benchIndexBuild(b *testing.B) {
	fx := queryBenchIndex()
	m := fx.ix.Roadmap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.BuildIndex(m)
	}
}

func benchIndexQuery(b *testing.B) {
	fx := queryBenchIndex()
	s, ix, qs := fx.s, fx.ix, fx.qs
	half := len(qs) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(s, qs[i%half], qs[half+i%half], 8, nil)
	}
}

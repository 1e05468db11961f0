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
		{Name: "ConfigFree", Bench: benchConfigFree},
		{Name: "ConfigFreeBatch", Items: batchConfigs, Bench: benchConfigFreeBatch},
		{Name: "EdgeFreeLinkage", Bench: benchEdgeFreeLinkage},
		{Name: "EdgeFreeBatchLinkage", Items: batchEdges, Bench: benchEdgeFreeBatchLinkage},
		{Name: "GraphBulkBuild", Bench: benchGraphBulkBuild},
		{Name: "IndexBuild", Bench: benchIndexBuild},
		{Name: "IndexQuery", Bench: benchIndexQuery},
		{Name: "LocalPlan", Bench: benchLocalPlan},
		{Name: "LocalPlanBatch", Bench: benchLocalPlanBatch},
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
	{"ConfigFreeBatch", "ConfigFree"},
	{"EdgeFreeBatchLinkage", "EdgeFreeLinkage"},
	{"LocalPlanBatch", "LocalPlan"},
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

// Batch sizes for the batched kernels; the scalar counterparts iterate
// the same fixture sets one item per op, so per-item times compare the
// exact same work.
const (
	batchConfigs = 64
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

func benchConfigFree(b *testing.B) {
	s := rigidBenchSpace()
	var c cspace.Counters
	var sc cspace.Scratch
	qs := freeConfigs(s, batchConfigs, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ValidS(qs[i%len(qs)], &sc, &c)
	}
}

func benchConfigFreeBatch(b *testing.B) {
	s := rigidBenchSpace()
	qs := freeConfigs(s, batchConfigs, 11)
	var bt cspace.Batch
	bt.Reset(s.Dim())
	for _, q := range qs {
		bt.Append(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Robot.ConfigFreeBatch(s.Env, &bt)
	}
}

// linkageBenchEdges returns n short edges whose swept motion is free, so
// a batch sweep never fails fast and every item costs full validation.
func linkageBenchEdges(e *env.Environment, l cspace.Linkage, s *cspace.Space, n int, seed uint64) (qa, qb []cspace.Config) {
	r := rng.New(seed)
	var sc cspace.Scratch
	for len(qa) < n {
		a := s.SampleIn(s.Bounds, r, nil)
		bb := a.Clone()
		for i := range bb {
			bb[i] += 0.01
		}
		if ok, _ := l.EdgeFree(e, a, bb, &sc); ok {
			qa = append(qa, a)
			qb = append(qb, bb)
		}
	}
	return qa, qb
}

func linkageBenchSpace() (*env.Environment, cspace.Linkage, *cspace.Space) {
	e := env.Maze2D(4, 0.2)
	l := cspace.Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1, 0.08, 0.06}}
	return e, l, cspace.NewLinkageSpace(e, l)
}

func benchEdgeFreeLinkage(b *testing.B) {
	e, l, s := linkageBenchSpace()
	qa, qb := linkageBenchEdges(e, l, s, batchEdges, 13)
	var sc cspace.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qa)
		l.EdgeFree(e, qa[j], qb[j], &sc)
	}
}

func benchEdgeFreeBatchLinkage(b *testing.B) {
	e, l, s := linkageBenchSpace()
	qa, qb := linkageBenchEdges(e, l, s, batchEdges, 13)
	var bt cspace.Batch
	bt.Reset(s.Dim())
	for j := range qa {
		bt.AppendEdge(qa[j], qb[j])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EdgeFreeBatch(e, &bt)
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

package main

import (
	"bytes"
	"context"
	"sort"
	"time"

	"parmp"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/metrics"
	"parmp/internal/prm"
	"parmp/internal/rng"
	"parmp/internal/serve"
)

const (
	queryK     = 8
	batchSize  = 32
	batchGoals = 8
)

// queryInputs is everything query-cold asks, generated from the seed
// alone (the roadmap plays no part): distinct collision-free pairs for
// single queries, and batches whose queries share a few goals.
type queryInputs struct {
	EngineSeed  uint64
	Starts      []cspace.Config
	Goals       []cspace.Config
	BatchStarts [][]cspace.Config
	BatchGoals  [][]cspace.Config
}

// pairOversample is how many uniform pairs are drawn per pair asked.
const pairOversample = 16

// makeQueryInputs draws the pairs. A query's cost grows steeply with the
// distance between its endpoints (the search settles every vertex nearer
// than the goal: 0.05 ms at distance 0.05, 20 ms at 1.0), so the median
// of a few hundred uniform pairs moved by 20 % from seed to seed. The
// single queries are therefore a systematic sample: pairOversample times
// as many uniform pairs, ranked by distance, every pairOversample-th
// kept, in the order drawn. The distances asked are then the quantiles
// of the uniform-pair distribution whatever the seed; which pairs have
// them still depends on it.
func makeQueryInputs(space *cspace.Space, seed uint64, queries, batches int) queryInputs {
	in := queryInputs{EngineSeed: derivedSeed(seed, saltEngine, 0)}
	r := rng.Derive(seed, saltPairs)
	type pair struct {
		start, goal cspace.Config
		dist        float64
		drawn       int
	}
	cands := make([]pair, queries*pairOversample)
	for i := range cands {
		a, b := freeConfig(space, r), freeConfig(space, r)
		cands[i] = pair{a, b, space.Distance(a, b), i}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	kept := make([]pair, 0, queries)
	for i := pairOversample / 2; i < len(cands); i += pairOversample {
		kept = append(kept, cands[i])
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].drawn < kept[j].drawn })
	for _, p := range kept {
		in.Starts, in.Goals = append(in.Starts, p.start), append(in.Goals, p.goal)
	}
	for b := 0; b < batches; b++ {
		goals := make([]cspace.Config, batchGoals)
		for i := range goals {
			goals[i] = freeConfig(space, r)
		}
		ss, gs := make([]cspace.Config, batchSize), make([]cspace.Config, batchSize)
		for i := range ss {
			ss[i], gs[i] = freeConfig(space, r), goals[i%batchGoals]
		}
		in.BatchStarts, in.BatchGoals = append(in.BatchStarts, ss), append(in.BatchGoals, gs)
	}
	return in
}

// queryWorkload is query-cold: a frozen PRM snapshot (point robot in
// med-cube, six rounds of 32 samples in each of 128 regions, grown in
// set-up) queried through the library with nothing cached — every query
// pays kd attach, attach local plans and graph search.
type queryWorkload struct {
	sc    scale
	space *cspace.Space
	opts  core.Options
	in    queryInputs
	snap  *parmp.Snapshot

	// Reference answers: the first pass's, each validated by the oracle.
	// The snapshot is frozen and queries are deterministic, so every
	// later answer must equal its reference exactly.
	ref      [][]cspace.Config
	refOK    []bool
	batchRef [][][]cspace.Config
	batchOK  [][]bool

	got      [][]cspace.Config // last cycle's answers, compared untimed
	gotOK    []bool
	batchGot [][][]cspace.Config
	batchHit [][]bool
}

func newQueryWorkload(sc scale) *queryWorkload { return &queryWorkload{sc: sc} }

const queryGrowRounds = 6

func (w *queryWorkload) setup(seed uint64) error {
	w.space = cspace.NewPointSpace(env.ByName("med-cube"))
	w.in = makeQueryInputs(w.space, seed, w.sc.Queries, w.sc.Batches)
	w.opts = core.Options{
		Procs: 8, Regions: 128, SamplesPerRegion: 32, Strategy: core.Repartition,
		HostWorkers: 1, Seed: w.in.EngineSeed,
	}
	eng, err := parmp.NewEngine(w.space, w.opts)
	if err != nil {
		return err
	}
	if err := eng.GrowN(context.Background(), queryGrowRounds); err != nil {
		return err
	}
	w.snap = eng.Snapshot()

	n, nb := len(w.in.Starts), len(w.in.BatchStarts)
	w.got, w.gotOK = make([][]cspace.Config, n), make([]bool, n)
	w.batchGot, w.batchHit = make([][][]cspace.Config, nb), make([][]bool, nb)
	w.ref, w.refOK, w.batchRef, w.batchOK = nil, nil, nil, nil
	return nil
}

func (w *queryWorkload) close() { w.snap = nil }

// ask runs the two timed sections — single queries, then batches — and
// stores the answers. With a twin, each call is made through the layer
// below Snapshot (the twin index) inside spans.
func (w *queryWorkload) ask(rec *recorder, tw *queryTwin) {
	for j := range w.in.Starts {
		t := time.Now()
		if tw == nil {
			w.got[j], w.gotOK[j] = w.snap.Query(w.in.Starts[j], w.in.Goals[j], queryK)
		} else {
			w.got[j], w.gotOK[j] = tw.query(j, w.in.Starts[j], w.in.Goals[j])
		}
		rec.lat = append(rec.lat, ms(time.Since(t)))
	}
	for b := range w.in.BatchStarts {
		t := time.Now()
		if tw == nil {
			w.batchGot[b], w.batchHit[b] = w.snap.QueryBatch(w.in.BatchStarts[b], w.in.BatchGoals[b], queryK)
		} else {
			w.batchGot[b], w.batchHit[b] = tw.queryBatch(b, w.in.BatchStarts[b], w.in.BatchGoals[b])
		}
		rec.other = append(rec.other, ms(time.Since(t)))
	}
	n := len(w.in.Starts) + len(w.in.BatchStarts)*batchSize
	rec.ops += n
	rec.attempted += n
}

func samePath(a, b []cspace.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			return false
		}
	}
	return true
}

// verify checks the last answers (untimed). The first pass is held
// against the oracle — every path re-checked at dense resolution, and
// nearly every pair must be solvable or the workload is not measuring
// successful queries — and becomes the reference; every later pass must
// reproduce the reference exactly.
func (w *queryWorkload) verify(rec *recorder) {
	if w.ref == nil {
		dense := denseSpace(w.space)
		solved := 0
		for j, p := range w.got {
			if !w.gotOK[j] {
				continue
			}
			solved++
			if err := checkPath(dense, p, w.in.Starts[j], w.in.Goals[j]); err != nil {
				rec.fail("query %d: %v", j, err)
			}
		}
		for b := range w.batchGot {
			for i, p := range w.batchGot[b] {
				if !w.batchHit[b][i] {
					continue
				}
				if err := checkPath(dense, p, w.in.BatchStarts[b][i], w.in.BatchGoals[b][i]); err != nil {
					rec.fail("batch %d query %d: %v", b, i, err)
				}
			}
		}
		if solved < len(w.got)*9/10 {
			rec.fail("only %d of %d queries solvable", solved, len(w.got))
		}
		w.ref, w.refOK = w.got, w.gotOK
		w.batchRef, w.batchOK = w.batchGot, w.batchHit
		w.got, w.gotOK = make([][]cspace.Config, len(w.ref)), make([]bool, len(w.ref))
		w.batchGot, w.batchHit = make([][][]cspace.Config, len(w.batchRef)), make([][]bool, len(w.batchRef))
		return
	}
	for j := range w.got {
		if w.gotOK[j] != w.refOK[j] || !samePath(w.got[j], w.ref[j]) {
			rec.fail("query %d: answer differs from the validated reference", j)
		}
	}
	for b := range w.batchGot {
		for i := range w.batchGot[b] {
			if w.batchHit[b][i] != w.batchOK[b][i] || !samePath(w.batchGot[b][i], w.batchRef[b][i]) {
				rec.fail("batch %d query %d: answer differs from the validated reference", b, i)
			}
		}
	}
}

func (w *queryWorkload) cycle(rec *recorder) {
	w.ask(rec, nil)
	w.verify(rec)
	rec.exact["nodes"] = float64(w.snap.NumNodes())
	rec.exact["virt_makespan"] = w.snap.PRM().TotalTime
	for j, ok := range w.refOK {
		if ok {
			rec.exact["hits"]++
			rec.exact["waypoints"] += float64(len(w.ref[j]))
		}
	}
}

// queryTwin is what Snapshot.Query does, one layer down: input screening
// in the harness, then prm.Index.Query / QueryBatch on an index built
// from the snapshot's roadmap — with a span around each and exact work
// counters per goroutine.
type queryTwin struct {
	tr    *tracer
	space *cspace.Space
	ix    *prm.Index
	work  cspace.Counters
}

func (t *queryTwin) query(op int, start, goal cspace.Config) ([]cspace.Config, bool) {
	outer := t.tr.begin("parmp.snapshot_query", -1, op)
	defer t.tr.end(outer)
	if !t.space.Bounds.Contains(start) || !t.space.Bounds.Contains(goal) {
		return nil, false
	}
	sp := t.tr.begin("prm.index_query", outer, op)
	defer t.tr.end(sp)
	return t.ix.Query(t.space, start, goal, queryK, &t.work)
}

func (t *queryTwin) queryBatch(op int, starts, goals []cspace.Config) ([][]cspace.Config, []bool) {
	sp := t.tr.begin("prm.querybatch", -1, op)
	defer t.tr.end(sp)
	return t.ix.QueryBatch(t.space, starts, goals, queryK, nil, nil)
}

func (w *queryWorkload) traced(tr *tracer, pub *recorder, m map[string]float64) {
	roadmap := w.snap.PRM().Roadmap
	tw := &queryTwin{tr: tr, space: w.space, ix: prm.BuildIndex(roadmap)}
	rec := newRecorder()
	w.ask(rec, tw)
	w.verify(pub) // twin parity: the index must answer exactly as the snapshot did

	// The two halves of an attach, re-done on their own: kd lookups for
	// both endpoints, then the local plans to every neighbour found.
	pts := make([]geom.Vec, roadmap.NumNodes())
	for i := range pts {
		pts[i] = roadmap.G.Vertex(graph.ID(i)).Q
	}
	tree := knn.BuildParallel(pts, 0)
	for j := range w.in.Starts {
		outer := tr.begin("bench.attach_parts", -1, j)
		sp := tr.begin("knn.attach", outer, j)
		hs, _ := tree.Nearest(w.in.Starts[j], queryK)
		hg, _ := tree.Nearest(w.in.Goals[j], queryK)
		tr.end(sp)
		sp = tr.begin("cspace.attach_lp", outer, j)
		for _, h := range hs {
			w.space.LocalPlan(w.in.Starts[j], pts[h.Index], nil)
		}
		for _, h := range hg {
			w.space.LocalPlan(w.in.Goals[j], pts[h.Index], nil)
		}
		tr.end(sp)
		tr.end(outer)
	}

	ls := tr.layers()
	m["parmp.snapshot_query_us"] = ls["parmp.snapshot_query"].meanUS()
	m["parmp.query_self_us"] = ls["parmp.snapshot_query"].selfMeanUS()
	m["prm.index_query_us"] = ls["prm.index_query"].meanUS()
	m["knn.attach_us"] = ls["knn.attach"].meanUS()
	m["cspace.attach_lp_us"] = ls["cspace.attach_lp"].meanUS()
	m["prm.search_self_us"] = m["prm.index_query_us"] - m["knn.attach_us"] - m["cspace.attach_lp_us"]
	m["prm.query_lp_calls"] = float64(tw.work.LPCalls)
	m["prm.query_knn_evals"] = float64(tw.work.KNNEvals)
	m["prm.querybatch_us_per_q"] = ls["prm.querybatch"].meanUS() / batchSize
	m["query.p99_us"] = quantile(pub.lat, 0.99) * 1e3
	m["query.batch_per_s"] = float64(len(w.in.BatchStarts)*batchSize) / (metrics.Sum(pub.other) / 1e3)
	m["sched.virt_makespan"] = w.snap.PRM().TotalTime
	m["bench.trace_overhead_frac"] = rec.seconds()/pub.seconds() - 1

	// Allocations per query, counted on one goroutine.
	na := min(len(w.in.Starts), 500)
	a0 := mallocCount()
	for j := 0; j < na; j++ {
		tw.ix.Query(w.space, w.in.Starts[j], w.in.Goals[j], queryK, nil)
	}
	m["prm.query_allocs"] = float64(mallocCount()-a0) / float64(na)
	nb := min(len(w.in.BatchStarts), 16)
	a0 = mallocCount()
	for b := 0; b < nb; b++ {
		tw.ix.QueryBatch(w.space, w.in.BatchStarts[b], w.in.BatchGoals[b], queryK, nil, nil)
	}
	m["prm.querybatch_allocs_per_q"] = float64(mallocCount()-a0) / float64(nb*batchSize)

	w.httpMiss(pub, m)
}

// httpMiss asks the same pairs over HTTP with the path cache disabled:
// the client-observed cost of a miss, less the library's own time, is
// what the serving tier adds (admission queue, batching window, JSON).
func (w *queryWorkload) httpMiss(pub *recorder, m map[string]float64) {
	ts, err := startServer(serve.Config{CacheSize: -1})
	if err != nil {
		pub.fail("miss server: %v", err)
		return
	}
	defer ts.stop()
	spec := serve.Spec{
		Env: "med-cube", Procs: w.opts.Procs, Regions: w.opts.Regions, Samples: w.opts.SamplesPerRegion,
		Rounds: queryGrowRounds, Seed: w.opts.Seed,
	}
	if err := ts.awaitGrown(queryBody(spec, w.in.Starts[0], w.in.Goals[0])); err != nil {
		pub.fail("miss server: %v", err)
		return
	}
	var all []float64
	var buf bytes.Buffer
	for j := range w.in.Starts {
		body := queryBody(spec, w.in.Starts[j], w.in.Goals[j])
		t := time.Now()
		code, err := ts.post("/v1/query", body, &buf)
		d := time.Since(t)
		if err == nil && code == 200 {
			all = append(all, float64(d.Nanoseconds())/1e3)
		}
	}
	if len(all) < len(w.in.Starts) {
		pub.fail("miss server: %d of %d requests answered", len(all), len(w.in.Starts))
	}
	st := ts.srv.Pool().Stats()[0]
	m["serve.miss_overhead_us"] = median(all) - quantile(pub.lat, 0.5)*1e3
	if st.Batches > 0 {
		m["serve.batch_mean"] = float64(st.Batched) / float64(st.Batches)
	}
	m["serve.rejected"] = float64(st.Rejected)
}

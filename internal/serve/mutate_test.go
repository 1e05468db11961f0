package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parmp"
)

// The mutate endpoint's core guarantee: once the mutate response has
// committed, no query — cached or planned — returns a path through the
// new obstacle. This is the serve-tier stale-path gate.
func TestServeMutateStaleQueryNeverServed(t *testing.T) {
	cfg := testConfig()
	cfg.GrowRounds = 2
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{Env: "free", Procs: 4, Regions: 32, Samples: 10, Rounds: 2}
	q := QueryRequest{
		Spec:  spec,
		Start: []float64{0.05, 0.5, 0.5},
		Goal:  []float64{0.95, 0.5, 0.5},
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/query", q, nil)
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	// Solve once, then again so the answer is warm in the path cache.
	var qr QueryResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &qr)
	if code != http.StatusOK || !qr.OK {
		t.Fatalf("pre-mutation query: status %d ok=%v", code, qr.OK)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &qr)
	if code != http.StatusOK || !qr.OK || !qr.CacheHit {
		t.Fatalf("pre-mutation repeat: status %d ok=%v cache_hit=%v", code, qr.OK, qr.CacheHit)
	}

	// Wall off the workspace: a full-height slab across x. Every
	// start-to-goal path crosses it, so the cached path is now a lie.
	mreq := MutateRequest{Spec: spec, Mutations: []MutationSpec{{
		Op:  "add",
		Box: &BoxSpec{Lo: []float64{0.45, 0, 0}, Hi: []float64{0.55, 1, 1}},
	}}}
	var mr MutateResponse
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/env/mutate", mreq, &mr)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if mr.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", mr.Epoch)
	}
	if mr.Deltas != 1 {
		t.Fatalf("deltas = %d, want 1", mr.Deltas)
	}
	if mr.RemovedNodes+mr.RemovedEdges == 0 {
		t.Fatal("a full slab through a free-space roadmap removed nothing")
	}

	// The same query must now miss — and must not be a cache hit.
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &qr)
	if code != http.StatusOK {
		t.Fatalf("post-mutation query: status %d", code)
	}
	if qr.OK || qr.CacheHit {
		t.Fatalf("stale path served after mutation: ok=%v cache_hit=%v", qr.OK, qr.CacheHit)
	}
	// Batch path too: same generation-keyed cache, same gate.
	var br BatchResponse
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{
		Spec:    spec,
		Queries: []BatchQuery{{Start: q.Start, Goal: q.Goal}},
	}, &br)
	if code != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("post-mutation batch: status %d results %d", code, len(br.Results))
	}
	if br.Results[0].OK {
		t.Fatal("batch served a stale path after mutation")
	}

	// Stats surface the dynamic-world accounting.
	stats := srv.Pool().Stats()
	if len(stats) != 1 {
		t.Fatalf("tenants = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Epoch != 1 || st.Repairs != 1 {
		t.Fatalf("stats epoch=%d repairs=%d, want 1 and 1", st.Epoch, st.Repairs)
	}
	if st.RepairUS <= 0 {
		t.Fatal("stats recorded no repair latency")
	}
	if st.Generation < 3 {
		t.Fatalf("generation = %d, want >= 3 (build + grow + mutate)", st.Generation)
	}
}

// A query admitted against generation g holds that snapshot while it
// searches. If a mutate publishes g+1 in the meantime, the query still
// answers — from the world it was admitted in — but its path must never
// enter the cache, where it would be served as a g+1 answer.
func TestServeQueryAdmittedBeforeMutateNeverCached(t *testing.T) {
	cfg := testConfig()
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{Env: "free", Procs: 4, Regions: 32, Samples: 10}
	q := QueryRequest{Spec: spec, Start: []float64{0.05, 0.5, 0.5}, Goal: []float64{0.95, 0.5, 0.5}}
	postJSON(t, ts.Client(), ts.URL+"/v1/query", q, nil)
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	canon, err := spec.Canonical(cfg.GrowRounds)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := srv.Pool().tenant(canon.Key(), canon)
	if err != nil {
		t.Fatal(err)
	}
	// The handler's state just past admission: snapshot g in hand.
	admitted := ten.eng.Snapshot()

	var mr MutateResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/env/mutate", MutateRequest{Spec: spec, Mutations: []MutationSpec{{
		Op:  "add",
		Box: &BoxSpec{Lo: []float64{0.45, 0, 0}, Hi: []float64{0.55, 1, 1}},
	}}}, &mr)
	if code != http.StatusOK || mr.Generation <= admitted.Generation() {
		t.Fatalf("mutate: status %d generation %d, want 200 and > %d", code, mr.Generation, admitted.Generation())
	}

	// The rest of the handler: search, then the tagged put.
	start, goal := parmp.Config(q.Start), parmp.Config(q.Goal)
	path, ok := ten.answer(admitted, cacheKey(start, goal, cfg.DefaultK), start, goal, cfg.DefaultK)
	if !ok || len(path) < 2 {
		t.Fatalf("query on the admitted snapshot: ok=%v path=%d", ok, len(path))
	}
	if n := ten.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entr(y/ies) computed before the mutate", n)
	}
	var qr QueryResponse
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &qr)
	if code != http.StatusOK || qr.OK || qr.CacheHit {
		t.Fatalf("post-mutation query: status %d ok=%v cache_hit=%v, want a planned miss", code, qr.OK, qr.CacheHit)
	}
}

// Invalid mutation batches are client errors with the world untouched.
func TestServeMutateRejectsInvalid(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{Env: "free", Procs: 2, Regions: 16, Samples: 4}
	bad := []struct {
		name string
		muts []MutationSpec
	}{
		{"empty batch", nil},
		{"unknown op", []MutationSpec{{Op: "teleport"}}},
		{"add without shape", []MutationSpec{{Op: "add"}}},
		{"add with two shapes", []MutationSpec{{
			Op:     "add",
			Box:    &BoxSpec{Lo: []float64{0, 0, 0}, Hi: []float64{0.1, 0.1, 0.1}},
			Sphere: &SphereSpec{Center: []float64{0.5, 0.5, 0.5}, Radius: 0.1},
		}}},
		{"box corners of different dimension", []MutationSpec{{Op: "add", Box: &BoxSpec{Lo: []float64{0, 0, 0}, Hi: []float64{0.1}}}}},
		{"inverted box", []MutationSpec{{Op: "add", Box: &BoxSpec{Lo: []float64{0.5, 0.5, 0.5}, Hi: []float64{0.4, 0.6, 0.6}}}}},
		{"degenerate sphere", []MutationSpec{{Op: "add", Sphere: &SphereSpec{Center: []float64{0.5, 0.5, 0.5}}}}},
		{"remove missing index", []MutationSpec{{Op: "remove", Index: 7}}},
		{"move without by", []MutationSpec{{Op: "move", Index: 0}}},
		{"atomic batch with bad tail", []MutationSpec{
			{Op: "add", Sphere: &SphereSpec{Center: []float64{0.5, 0.5, 0.5}, Radius: 0.1}},
			{Op: "remove", Index: 9},
		}},
	}
	for _, tc := range bad {
		var er errorResponse
		code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/env/mutate", MutateRequest{Spec: spec, Mutations: tc.muts}, &er)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, code, er.Error)
		}
	}
	// Every rejection left the world at epoch 0 — including the atomic
	// batch whose first mutation was valid.
	for _, st := range srv.Pool().Stats() {
		if st.Epoch != 0 || st.Repairs != 0 {
			t.Fatalf("rejected mutations moved the world: epoch=%d repairs=%d", st.Epoch, st.Repairs)
		}
	}
}

// A portfolio tenant takes mutations too: every racer repairs, the
// winner's snapshot reflects the new epoch, and stats agree — and so
// does an undecided race's empty snapshot.
func TestServeMutatePortfolioTenant(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start, goal := []float64{0.05, 0.05, 0.05}, []float64{0.95, 0.95, 0.95}
	spec := Spec{Env: "free", Portfolio: 2, Root: start, Goal: goal, Procs: 2, Regions: 16, Samples: 8}
	postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Spec: spec, Start: start, Goal: goal}, nil)
	waitGrown(t, ts.Client(), ts.URL, 30*time.Second)

	var mr MutateResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/env/mutate", MutateRequest{
		Spec: spec,
		Mutations: []MutationSpec{{
			Op:     "add",
			Sphere: &SphereSpec{Center: []float64{0.5, 0.9, 0.5}, Radius: 0.05},
		}},
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("portfolio mutate: status %d", code)
	}
	if mr.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", mr.Epoch)
	}
	st := srv.Pool().Stats()[0]
	if st.Epoch != 1 || st.Repairs != 1 {
		t.Fatalf("stats epoch=%d repairs=%d, want 1 and 1", st.Epoch, st.Repairs)
	}

	// A race that cannot be won (the goal is inside med-cube's block),
	// mutated once its first wave has run.
	hopeless := Spec{Env: "med-cube", Portfolio: 2, Root: start, Goal: []float64{0.5, 0.5, 0.5},
		Procs: 2, Regions: 8, Samples: 4}
	postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Spec: hopeless, Start: start, Goal: goal}, nil)
	racing := func() TenantStats {
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		for _, ten := range sr.Tenants {
			if ten.Env == "med-cube" {
				return ten
			}
		}
		t.Fatal("hopeless tenant not listed")
		return TenantStats{}
	}
	for deadline := time.Now().Add(30 * time.Second); racing().Waves == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("hopeless race never ran a wave")
		}
	}
	mr = MutateResponse{}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/env/mutate", MutateRequest{
		Spec: hopeless,
		Mutations: []MutationSpec{{
			Op:     "add",
			Sphere: &SphereSpec{Center: []float64{0.9, 0.9, 0.9}, Radius: 0.05},
		}},
	}, &mr)
	if code != http.StatusOK || mr.Epoch != 1 {
		t.Fatalf("undecided portfolio mutate: status %d epoch %d, want 200 and 1", code, mr.Epoch)
	}
	if st := racing(); st.Epoch != 1 || st.Winner != nil {
		t.Fatalf("undecided portfolio stats: epoch %d winner %v, want 1 and none", st.Epoch, st.Winner)
	}
}

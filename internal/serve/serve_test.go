package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testConfig keeps tenants tiny and growth fast for tests.
func testConfig() Config {
	return Config{
		MaxTenants:     2,
		QueueDepth:     64,
		CacheSize:      128,
		GrowRounds:     1,
		RequestTimeout: 5 * time.Second,
		DefaultK:       8,
	}
}

func testSpec() Spec {
	return Spec{Env: "med-cube", Procs: 4, Regions: 32, Samples: 10}
}

func postJSON(t *testing.T, client *http.Client, url string, body, out any) (int, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitGrown polls until the tenant for spec reports grow_done.
func waitGrown(t *testing.T, client *http.Client, base string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		done := len(st.Tenants) > 0
		for _, ten := range st.Tenants {
			if !ten.GrowDone {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("tenant never finished growing")
}

func TestServeQueryEndToEnd(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{
		Spec:  testSpec(),
		Start: []float64{0.05, 0.05, 0.05},
		Goal:  []float64{0.95, 0.95, 0.95},
	}
	var qr QueryResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &qr)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	// After growth the corner query must solve; asking again must
	// eventually come from the cache.
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &qr)
	if code != http.StatusOK || !qr.OK {
		t.Fatalf("post-growth query: status %d ok=%v", code, qr.OK)
	}
	if len(qr.Path) < 2 {
		t.Fatalf("path has %d waypoints", len(qr.Path))
	}
	var hit QueryResponse
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &hit)
	if code != http.StatusOK || !hit.OK || !hit.CacheHit {
		t.Fatalf("repeat query: status %d ok=%v cache_hit=%v", code, hit.OK, hit.CacheHit)
	}

	// Malformed inputs are client errors, not panics.
	var er errorResponse
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Spec: Spec{Env: "nope"}}, &er)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown env: status %d (%s)", code, er.Error)
	}
	// So is an inline world env.Parse rejects: non-finite numbers, a second
	// bounds line.
	for _, text := range []string{
		"bounds nan nan 1 1",
		"bounds 0 0 1 1\nsphere .5 .5 nan",
		"bounds 0 0 1 1\nbox .2 .2 .4 .4\nbounds 0 0 0 1 1 1",
	} {
		code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Spec: Spec{EnvText: text},
			Start: []float64{0.1, 0.1}, Goal: []float64{0.9, 0.9}}, &er)
		if code != http.StatusBadRequest || !strings.Contains(er.Error, "env_text: env: line ") {
			t.Fatalf("env_text %q: status %d (%s)", text, code, er.Error)
		}
	}
	// Wrong-dimension endpoints answer a clean miss.
	bad := req
	bad.Start = []float64{0.1}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", bad, &qr)
	if code != http.StatusOK || qr.OK {
		t.Fatalf("wrong-dim query: status %d ok=%v", code, qr.OK)
	}
}

// A spec sized past the limits, or negative, is refused at every endpoint
// before any tenant exists: at the parent the first request held its
// handler for 38 s building 3.2 M regions and left the process at
// 3.2 GB, and a negative procs was served as the default 8.
func TestServeOversizedSpecRejected(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ sizes, want string }{
		{`"procs":400000`, "procs 400000 exceeds the limit of 1024"},
		// Every field inside its own limit, their product not.
		{`"regions":8192,"samples":512,"rounds":64`, "= 268435456 sampling attempts exceeds the limit of 4194304"},
		{`"procs":-1`, "procs -1 is negative"},
		{`"regions":-5`, "regions -5 is negative"},
		{`"samples":-1`, "samples -1 is negative"},
		{`"rounds":-2`, "rounds -2 is negative"},
		{`"portfolio":-3`, "portfolio -3 is negative"},
	} {
		for _, path := range []string{"/v1/query", "/v1/batch", "/v1/env/mutate"} {
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(
				`{"spec":{"env":"med-cube",`+tc.sizes+`},"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],`+
					`"queries":[{"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}],"mutations":[{"op":"remove"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, tc.want) {
				t.Fatalf("%s %s: status %d (%s), want 400 containing %q", path, tc.sizes, resp.StatusCode, er.Error, tc.want)
			}
		}
	}
	if n := len(srv.Pool().Stats()); n != 0 {
		t.Fatalf("%d tenant(s) built for a refused spec", n)
	}
}

// A portfolio-built tenant serves through the same endpoints: the race
// runs in the background grow loop, the winner's snapshot answers the
// race query, and stats report the race's progress.
func TestServePortfolioTenant(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start, goal := []float64{0.05, 0.05, 0.05}, []float64{0.95, 0.95, 0.95}
	spec := Spec{Env: "walls", Portfolio: 2, Root: start, Goal: goal, Procs: 2, Regions: 16, Samples: 8}
	req := QueryRequest{Spec: spec, Start: start, Goal: goal}
	var qr QueryResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &qr)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	waitGrown(t, ts.Client(), ts.URL, 30*time.Second)

	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &qr)
	if code != http.StatusOK || !qr.OK || len(qr.Path) < 2 {
		t.Fatalf("post-race query: status %d ok=%v path=%d", code, qr.OK, len(qr.Path))
	}
	stats := srv.Pool().Stats()
	if len(stats) != 1 {
		t.Fatalf("tenants = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Racers != 2 || st.Winner == nil || st.Waves == 0 {
		t.Fatalf("portfolio stats %+v: want 2 racers, a winner, and waves > 0", st)
	}
}

func TestServeBatchEndpoint(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []BatchQuery{
		{Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}},
		{Start: []float64{0.1, 0.9, 0.1}, Goal: []float64{0.95, 0.95, 0.95}},
		{Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}}, // duplicate of 0
	}
	// Warm the tenant, then wait out growth for deterministic answers.
	postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec(), Queries: queries[:1]}, nil)
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	var br BatchResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec(), Queries: queries}, &br)
	if code != http.StatusOK || len(br.Results) != 3 {
		t.Fatalf("batch: status %d results %d", code, len(br.Results))
	}
	for i, res := range br.Results {
		if !res.OK {
			t.Fatalf("batch query %d missed", i)
		}
	}
	// The duplicate is answered by the cache entry query 0 left (or found).
	if !br.Results[2].CacheHit || !reflect.DeepEqual(br.Results[0].Path, br.Results[2].Path) {
		t.Fatalf("duplicate batch query: cache_hit=%v, same path=%v", br.Results[2].CacheHit,
			reflect.DeepEqual(br.Results[0].Path, br.Results[2].Path))
	}
	if br.Results[1].CacheHit {
		t.Fatal("a pair asked once came back as a cache hit")
	}
	// Two requests of four queries: each either hit the cache or ran a search.
	if st := srv.Pool().Stats()[0]; st.Batches != 2 || st.CacheHits < 1 || st.Batched+st.CacheHits != 4 {
		t.Fatalf("stats batches=%d batched=%d cache_hits=%d", st.Batches, st.Batched, st.CacheHits)
	}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec()}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
}

// Concurrent clients on one tenant: everything answers and the cache
// serves repeats, with every miss searched on its own handler goroutine.
func TestServeConcurrentClientsAndCache(t *testing.T) {
	cfg := testConfig()
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{
		Spec: testSpec(), Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95},
	}, nil)
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	// A small hot set so distinct goals still repeat across clients. The
	// test roadmap is deliberately tiny, so keep only the pairs it
	// actually solves — the contract under test is concurrent answering
	// + caching, not roadmap coverage. Growth is done, so solvability is stable.
	candidates := [][2][]float64{
		{{0.05, 0.05, 0.05}, {0.95, 0.95, 0.95}},
		{{0.1, 0.9, 0.1}, {0.9, 0.1, 0.9}},
		{{0.2, 0.2, 0.8}, {0.8, 0.8, 0.2}},
	}
	var hot [][2][]float64
	for _, pair := range candidates {
		var qr QueryResponse
		code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{
			Spec: testSpec(), Start: pair[0], Goal: pair[1],
		}, &qr)
		if code != http.StatusOK {
			t.Fatalf("pre-check: status %d", code)
		}
		if qr.OK {
			hot = append(hot, pair)
		}
	}
	if len(hot) == 0 {
		t.Fatal("no hot pair solvable after growth")
	}
	const clients, perClient = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pair := hot[(c+i)%len(hot)]
				var qr QueryResponse
				b, _ := json.Marshal(QueryRequest{Spec: testSpec(), Start: pair[0], Goal: pair[1]})
				resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK || !qr.OK {
					errs <- fmt.Errorf("client %d query %d: status %d ok=%v", c, i, code, qr.OK)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := srv.Pool().Stats()
	if len(stats) != 1 {
		t.Fatalf("tenants = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Queries < clients*perClient {
		t.Fatalf("queries = %d, want >= %d", st.Queries, clients*perClient)
	}
	if st.CacheHits == 0 {
		t.Fatal("hot pairs produced no cache hits")
	}
}

// A full admission gate must answer 429 with Retry-After, not wait.
func TestServeBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	cfg.CacheSize = -1 // force every request through the gate
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Build the tenant, then wedge it: take the gate's only slot
	// directly, so the next admission deterministically overflows
	// instead of racing a real query's search time.
	spec, err := testSpec().Canonical(cfg.GrowRounds)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := srv.Pool().tenant(spec.Key(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ten.gate <- struct{}{}

	q := QueryRequest{
		Spec:  testSpec(),
		Start: []float64{0.05, 0.05, 0.05},
		Goal:  []float64{0.95, 0.95, 0.95},
	}
	var er errorResponse
	code, hdr := postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &er)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", code, er.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	// A client batch is one request in flight: same gate, same answer.
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{
		Spec: testSpec(), Queries: []BatchQuery{{Start: q.Start, Goal: q.Goal}},
	}, &er)
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch: status %d (%s), want 429", code, er.Error)
	}
	if st := srv.Pool().Stats(); st[0].Rejected != 2 || st[0].QueueLen != 1 {
		t.Fatalf("stats rejected=%d queue_len=%d, want 2 and 1", st[0].Rejected, st[0].QueueLen)
	}
	// Free the slot: a request that reaches a canceled tenant is
	// answered 503, and a finished one leaves the gate empty.
	ten.release()
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, nil)
	if code != http.StatusOK || len(ten.gate) != 0 {
		t.Fatalf("after release: status %d, %d slot(s) held, want 200 and 0", code, len(ten.gate))
	}
	ten.cancel()
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &er)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 from canceled tenant", code, er.Error)
	}
}

// A single /v1/query miss and the same pair through /v1/batch run the
// same search over one roadmap: the paths are equal float for float.
func TestServeQueryAndBatchAgree(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = -1 // both answers are misses
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pairs := []BatchQuery{
		{Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}},
		{Start: []float64{0.1, 0.9, 0.1}, Goal: []float64{0.95, 0.95, 0.95}},
		{Start: []float64{0.2, 0.2, 0.8}, Goal: []float64{0.8, 0.8, 0.2}},
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec(), Queries: pairs[:1]}, nil)
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)

	var br BatchResponse
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec(), Queries: pairs}, &br)
	if code != http.StatusOK || len(br.Results) != len(pairs) {
		t.Fatalf("batch: status %d results %d", code, len(br.Results))
	}
	solved := 0
	for i, p := range pairs {
		var qr QueryResponse
		code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Spec: testSpec(), Start: p.Start, Goal: p.Goal}, &qr)
		if code != http.StatusOK || qr.CacheHit {
			t.Fatalf("pair %d: status %d cache_hit=%v", i, code, qr.CacheHit)
		}
		if qr.OK != br.Results[i].OK {
			t.Fatalf("pair %d: query ok=%v, batch ok=%v", i, qr.OK, br.Results[i].OK)
		}
		if !qr.OK {
			continue
		}
		solved++
		if !reflect.DeepEqual(qr.Path, br.Results[i].Path) {
			t.Fatalf("pair %d: query path %v, batch path %v", i, qr.Path, br.Results[i].Path)
		}
	}
	if solved == 0 {
		t.Fatal("no pair solvable after growth")
	}
	// Only /v1/batch feeds the batch counters now.
	if st := srv.Pool().Stats()[0]; st.Batches != 2 || st.Batched != int64(1+len(pairs)) {
		t.Fatalf("stats batches=%d batched=%d, want 2 and %d", st.Batches, st.Batched, 1+len(pairs))
	}
}

// The pool must build tenants lazily, share them by canonical key, and
// evict LRU beyond MaxTenants.
func TestPoolLazyAndLRU(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 2
	p := NewPool(cfg)
	defer p.Close()

	mk := func(env string, seed uint64) Spec {
		sp, err := Spec{Env: env, Seed: seed, Procs: 2, Regions: 16, Samples: 4}.Canonical(1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	get := func(sp Spec) *tenant {
		t.Helper()
		ten, err := p.tenant(sp.Key(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return ten
	}
	a := get(mk("med-cube", 1))
	if again := get(mk("med-cube", 1)); again != a {
		t.Fatal("same canonical spec must share the tenant")
	}
	b := get(mk("small-cube", 1))
	// Touch a so the next insert evicts b.
	get(mk("med-cube", 1))
	get(mk("free", 1))
	stats := p.Stats()
	if len(stats) != 2 {
		t.Fatalf("tenants = %d, want 2 after eviction", len(stats))
	}
	for _, st := range stats {
		if st.Env == "small-cube" {
			t.Fatal("LRU tenant was not evicted")
		}
	}
	// The evicted tenant's context must be canceled.
	select {
	case <-b.ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("evicted tenant not canceled")
	}
}

// Rollover under load: queries served while the engine grows must stay
// well-formed, and the cache must never serve a path tagged for an
// older snapshot round.
func TestServeRolloverConsistency(t *testing.T) {
	cfg := testConfig()
	cfg.GrowRounds = 4
	cfg.GrowInterval = 2 * time.Millisecond
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Rounds = 4
	req := QueryRequest{Spec: spec, Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}}
	lastRounds := -1
	for i := 0; i < 200; i++ {
		var qr QueryResponse
		code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &qr)
		if code != http.StatusOK {
			t.Fatalf("iter %d: status %d", i, code)
		}
		if qr.Rounds < lastRounds {
			t.Fatalf("iter %d: rounds went backwards %d -> %d", i, lastRounds, qr.Rounds)
		}
		lastRounds = qr.Rounds
		if qr.OK {
			if got := qr.Path[0]; got[0] != 0.05 {
				t.Fatalf("iter %d: path does not start at start", i)
			}
		}
		if qr.GrowDone && qr.CacheHit {
			break // steady state reached and cache warm: done
		}
	}
}

// A spec that cannot build must not evict a tenant that serves: three
// specs that pass Canonical and fail in build — sent concurrently, twice
// each — are answered 400 and forgotten, while the one grown tenant of a
// two-slot pool keeps its rounds, its nodes and its place in /v1/stats
// (it read two dead tenants and no live one when a tenant took its slot
// before it had built).
func TestUnbuildableSpecTakesNoSlot(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 2
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := QueryRequest{Spec: testSpec(), Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", good, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)
	stats := func() []TenantStats {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Tenants
	}
	before := stats()
	if len(before) != 1 || before[0].Rounds == 0 || before[0].Nodes == 0 {
		t.Fatalf("fixture: %+v", before)
	}

	bad := []Spec{
		{Env: "med-cube", Procs: 8, Regions: 1}, // core: Regions must be >= Procs
		{Env: "med-cube", Robot: "se2:0.1,0.1"}, // a 2-D robot in a 3-D world
		{EnvText: "garbage"},
	}
	var wg sync.WaitGroup
	for i := 0; i < 2*len(bad); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Spec: bad[i%len(bad)], Start: good.Start, Goal: good.Goal})
			resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "tenant build failed") {
				t.Errorf("spec %d: status %d %q, want 400 from the build", i%len(bad), resp.StatusCode, er.Error)
			}
		}()
	}
	wg.Wait()

	after := stats()
	if len(after) != 1 || after[0].Env != "med-cube" || after[0].Rounds != before[0].Rounds || after[0].Nodes != before[0].Nodes || !after[0].GrowDone {
		t.Fatalf("/v1/stats after the unbuildable specs: %+v, want exactly %+v", after, before)
	}
	var qr QueryResponse
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", good, &qr); code != http.StatusOK || !qr.OK || qr.Rounds != before[0].Rounds {
		t.Fatalf("the grown tenant stopped serving: status %d, %+v", code, qr)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
		BatchWorkers:   4,
		BatchMax:       16,
		BatchWindow:    100 * time.Microsecond,
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
			if !ten.GrowDone && ten.BuildErr == "" {
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
	// Duplicate queries must agree with each other.
	if fmt.Sprint(br.Results[0].Path) != fmt.Sprint(br.Results[2].Path) {
		t.Fatal("duplicate batch queries disagree")
	}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Spec: testSpec()}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
}

// Concurrent clients on one tenant: everything answers, batches form,
// and the cache serves repeats. This is the coalescing path under real
// contention.
func TestServeConcurrentClientsBatchAndCache(t *testing.T) {
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
	// actually solves — the contract under test is coalescing + caching,
	// not roadmap coverage. Growth is done, so solvability is stable.
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

// A full admission queue must answer 429 with Retry-After, not block.
func TestServeBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	cfg.BatchWorkers = 1
	cfg.BatchMax = 1
	cfg.CacheSize = -1 // force every request through the queue
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Build the tenant, then wedge it: stop its worker and fill the
	// depth-1 queue directly, so the next admission deterministically
	// overflows instead of racing the worker's drain speed.
	spec, err := testSpec().Canonical(cfg.GrowRounds)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := srv.Pool().Tenant(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ten.buildErr != nil {
		t.Fatal(ten.buildErr)
	}
	ten.cancel()
	ten.workers.Wait()
	ten.pending <- &request{resp: make(chan response, 1)}

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
	if st := srv.Pool().Stats(); st[0].Rejected == 0 {
		t.Fatal("stats did not count rejections")
	}
	// Free the queue slot: an admitted request on a canceled tenant is
	// answered 503, never silently dropped.
	<-ten.pending
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", q, &er)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 from canceled tenant", code, er.Error)
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
		ten, err := p.Tenant(sp)
		if err != nil {
			t.Fatal(err)
		}
		return ten
	}
	a := get(mk("med-cube", 1))
	if a.buildErr != nil {
		t.Fatal(a.buildErr)
	}
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

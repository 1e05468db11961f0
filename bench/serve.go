package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/rng"
	"parmp/internal/serve"
)

// testServer is an in-process serve.Server on a loopback listener plus a
// client with one keep-alive connection.
type testServer struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startServer(cfg serve.Config) (*testServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &testServer{
		srv:  serve.New(cfg),
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes connections, the listener and the engine pool, and waits
// for the serving goroutine.
func (s *testServer) stop() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// post sends one request and reads the whole reply into buf (so the
// connection is reused), returning the status code.
func (s *testServer) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest("POST", s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// query posts one /v1/query and decodes the answer.
func (s *testServer) query(body []byte) (serve.QueryResponse, error) {
	var buf bytes.Buffer
	var qr serve.QueryResponse
	code, err := s.post("/v1/query", body, &buf)
	if err != nil {
		return qr, err
	}
	if code != http.StatusOK {
		return qr, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(buf.Bytes()))
	}
	return qr, json.Unmarshal(buf.Bytes(), &qr)
}

// awaitGrown creates the tenant with a first request and waits until its
// background growth has reached the spec's round target.
func (s *testServer) awaitGrown(firstBody []byte) error {
	if _, err := s.query(firstBody); err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := s.srv.Pool().Stats()
		if len(st) > 0 && st[0].GrowDone {
			if st[0].GrowError != "" || st[0].BuildErr != "" {
				return fmt.Errorf("tenant: %s%s", st[0].BuildErr, st[0].GrowError)
			}
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("tenant did not finish growing")
}

func queryBody(spec serve.Spec, start, goal cspace.Config) []byte {
	b, err := json.Marshal(serve.QueryRequest{Spec: spec, Start: start, Goal: goal})
	if err != nil {
		panic(err) // plain floats and strings
	}
	return b
}

// freeConfig draws a collision-free configuration uniformly from the
// space's bounds.
func freeConfig(s *cspace.Space, r *rng.Stream) cspace.Config {
	q, ok := s.SampleFreeIn(s.Bounds, r, 1<<20, nil)
	if !ok {
		panic("bench: environment has no free space") // med-cube is mostly free
	}
	return q
}

const hotPairs = 64

// serveWorkload is serve-hot: one tenant behind the HTTP tier, grown in
// set-up, and a hot set of queries that are all in its path cache, so
// every measured request is a cached hit. HTTP, JSON, spec
// canonicalisation, tenant lookup and the cache do all the work.
type serveWorkload struct {
	sc    scale
	space *cspace.Space
	ts    *testServer
	spec  serve.Spec

	bodies [][]byte // request body per hot pair
	expect [][]byte // reply prefix per hot pair: ok flag and path, byte for byte
	paths  [][]cspace.Config
	sched  []uint8 // hot pair per request, same every cycle
}

func newServeWorkload(sc scale) *serveWorkload { return &serveWorkload{sc: sc} }

// hotSchedule is the request schedule: which hot pair each request of a
// cycle asks for.
func hotSchedule(seed uint64, n int) []uint8 {
	r := rng.Derive(seed, saltSchedule)
	s := make([]uint8, n)
	for i := range s {
		s[i] = uint8(r.Intn(hotPairs))
	}
	return s
}

func (w *serveWorkload) setup(seed uint64) error {
	w.space = cspace.NewPointSpace(env.ByName("med-cube"))
	w.spec = serve.Spec{Env: "med-cube", Procs: 8, Samples: 16, Rounds: 3, Seed: derivedSeed(seed, saltEngine, 0)}
	ts, err := startServer(serve.Config{})
	if err != nil {
		return err
	}
	w.ts = ts
	r := rng.Derive(seed, saltPairs)
	if err := ts.awaitGrown(queryBody(w.spec, freeConfig(w.space, r), freeConfig(w.space, r))); err != nil {
		return err
	}
	// Fill the cache: keep the first hotPairs random pairs the roadmap
	// solves. Asking once caches the path; asking again must then hit.
	w.bodies, w.expect, w.paths = nil, nil, nil
	dense := denseSpace(w.space)
	for tries := 0; len(w.bodies) < hotPairs; tries++ {
		if tries > 100*hotPairs {
			return fmt.Errorf("only %d of %d hot pairs solvable", len(w.bodies), hotPairs)
		}
		start, goal := freeConfig(w.space, r), freeConfig(w.space, r)
		body := queryBody(w.spec, start, goal)
		first, err := ts.query(body)
		if err != nil {
			return err
		}
		if !first.OK {
			continue
		}
		var buf bytes.Buffer
		if _, err := ts.post("/v1/query", body, &buf); err != nil {
			return err
		}
		var hit serve.QueryResponse
		if err := json.Unmarshal(buf.Bytes(), &hit); err != nil {
			return err
		}
		cut := bytes.Index(buf.Bytes(), []byte(`,"rounds":`))
		if !hit.OK || !hit.CacheHit || cut < 0 {
			return fmt.Errorf("second ask of a solved pair was not a cache hit: %s", buf.Bytes())
		}
		path := make([]cspace.Config, len(hit.Path))
		for i, q := range hit.Path {
			path[i] = q
		}
		if err := checkPath(dense, path, start, goal); err != nil {
			return fmt.Errorf("cached path: %w", err)
		}
		w.bodies = append(w.bodies, body)
		w.expect = append(w.expect, append([]byte(nil), buf.Bytes()[:cut]...))
		w.paths = append(w.paths, path)
	}
	w.sched = hotSchedule(seed, w.sc.HotRequests)
	return nil
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.stop()
		w.ts = nil
	}
}

var cacheHitMark = []byte(`"cache_hit":true`)

// drive sends the cycle's schedule over the one keep-alive connection,
// waiting for each reply before sending the next request. each, when
// non-nil, sees every reply (traced run).
func (w *serveWorkload) drive(rec *recorder, tr *tracer, each func(reply []byte)) {
	var buf bytes.Buffer
	for j, pair := range w.sched {
		rec.attempted++
		sp := -1
		if tr != nil {
			sp = tr.begin("serve.http_roundtrip", -1, j)
		}
		t := time.Now()
		code, err := w.ts.post("/v1/query", w.bodies[pair], &buf)
		d := time.Since(t)
		if tr != nil {
			tr.end(sp)
		}
		switch {
		case err != nil:
			rec.fail("request %d: %v", j, err)
			continue
		case code != http.StatusOK:
			rec.fail("request %d: status %d", j, code)
			continue
		case !bytes.HasPrefix(buf.Bytes(), w.expect[pair]):
			// The expected prefix is the ok flag plus the path that
			// set-up validated against the oracle, byte for byte.
			rec.fail("request %d: reply differs from the validated path", j)
		case !bytes.Contains(buf.Bytes(), cacheHitMark):
			rec.fail("request %d: not a cache hit", j)
		}
		rec.lat = append(rec.lat, ms(d))
		rec.ops++
		if each != nil {
			each(buf.Bytes())
		}
	}
}

func (w *serveWorkload) cycle(rec *recorder) {
	w.drive(rec, nil, nil)
	rec.exact["nodes"] = float64(w.ts.srv.Pool().Stats()[0].Nodes)
	rec.exact["hot_waypoints"] = 0
	for _, p := range w.paths {
		rec.exact["hot_waypoints"] += float64(len(p))
	}
}

// serveUS pulls the server-reported processing time out of a reply
// without decoding the path.
func serveUS(reply []byte) (float64, bool) {
	const key = `"serve_us":`
	i := bytes.LastIndex(reply, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := reply[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

func (w *serveWorkload) traced(tr *tracer, pub *recorder, m map[string]float64) {
	before := w.ts.srv.Pool().Stats()[0]
	var serverUS []float64
	rec := newRecorder()
	w.drive(rec, tr, func(reply []byte) {
		if v, ok := serveUS(reply); ok {
			serverUS = append(serverUS, v)
		}
	})
	pub.failed += rec.failed
	pub.notes = append(pub.notes, rec.notes...)
	after := w.ts.srv.Pool().Stats()[0]
	clientP50 := quantile(pub.lat, 0.5) * 1e3
	m["serve.serve_us_p50"] = median(serverUS)
	m["serve.client_gap_us"] = clientP50 - median(serverUS)
	m["serve.hit_p99_us"] = quantile(pub.lat, 0.99) * 1e3
	if dq := after.Queries - before.Queries; dq > 0 {
		m["serve.cache_hit_frac"] = float64(after.CacheHits-before.CacheHits) / float64(dq)
	}
	m["serve.rejected"] = float64(after.Rejected)
	m["bench.trace_overhead_frac"] = rec.seconds()/pub.seconds() - 1

	// The handler without TCP: same requests straight into ServeHTTP.
	h := w.ts.srv.Handler()
	n := min(len(w.sched), 5000)
	newPair := func(j int) (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/query", bytes.NewReader(w.bodies[w.sched[j]]))
	}
	for j := 0; j < n; j++ {
		rr, req := newPair(j)
		sp := tr.begin("serve.handler", -1, j)
		h.ServeHTTP(rr, req)
		tr.end(sp)
		if rr.Code != http.StatusOK {
			pub.fail("handler request %d: status %d", j, rr.Code)
		}
	}
	m["serve.handler_us"] = tr.layers()["serve.handler"].meanUS()
	// Allocations per hit: the same loop counted, minus what building the
	// request and the recorder costs on their own.
	a0 := mallocCount()
	for j := 0; j < n; j++ {
		rr, req := newPair(j)
		h.ServeHTTP(rr, req)
	}
	a1 := mallocCount()
	for j := 0; j < n; j++ {
		newPair(j)
	}
	a2 := mallocCount()
	m["serve.allocs_per_hit"] = (float64(a1-a0) - float64(a2-a1)) / float64(n)

	// JSON on this workload's own messages.
	it := w.sc.KernelIters
	m["serve.json_decode_us"] = float64(timePer(it, func(i int) {
		var qr serve.QueryRequest
		json.Unmarshal(w.bodies[i%hotPairs], &qr)
	}).Nanoseconds()) / 1e3
	replies := make([]serve.QueryResponse, hotPairs)
	for i, p := range w.paths {
		fl := make([][]float64, len(p))
		for k, q := range p {
			fl[k] = q
		}
		replies[i] = serve.QueryResponse{OK: true, Path: fl, Rounds: w.spec.Rounds, GrowDone: true, CacheHit: true, ServeUS: 12.345}
	}
	m["serve.json_encode_us"] = float64(timePer(it, func(i int) {
		json.Marshal(replies[i%hotPairs])
	}).Nanoseconds()) / 1e3
}

//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// maxHitAllocs is what serving a /v1/query cache hit allocates inside
// ServeHTTP, request and recorder building not counted. It read 32 when
// the reply was encoding/json over a QueryResponse, and 31 when every
// body was decoded by encoding/json and its spec canonicalised and keyed.
const maxHitAllocs = 12

// A cached hit allocates a fixed count: the bounded body reader, start
// and goal, the cache key, one reply buffer, and the recorder's header
// set, header snapshot and body. The body is read into a pooled buffer
// and its spec found in the server's memo. (The race detector makes
// sync.Pool drop entries, which adds allocations at random, hence the
// build tag.)
func TestServeHitAllocs(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(QueryRequest{Spec: testSpec(), Start: []float64{0.05, 0.05, 0.05}, Goal: []float64{0.95, 0.95, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	}
	serve := func() []byte {
		rec, req := build()
		h.ServeHTTP(rec, req)
		return rec.Body.Bytes()
	}
	serve()
	ts := httptest.NewServer(h)
	defer ts.Close()
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)
	serve()
	if reply := serve(); !bytes.Contains(reply, []byte(`"ok":true`)) || !bytes.Contains(reply, []byte(`"cache_hit":true`)) {
		t.Fatalf("fixture: the pair is not a cached hit: %s", reply)
	}
	total := testing.AllocsPerRun(200, func() { serve() })
	requests := testing.AllocsPerRun(200, func() { sinkRec, sinkReq = build() })
	if got := total - requests; got > maxHitAllocs {
		t.Fatalf("a cached hit allocates %v times in ServeHTTP, want at most %d", got, maxHitAllocs)
	}
}

// The built requests land here, so building them is counted as it is
// inside serve, where ServeHTTP keeps them.
var (
	sinkRec *httptest.ResponseRecorder
	sinkReq *http.Request
)

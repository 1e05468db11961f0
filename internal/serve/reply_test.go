package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parmp"
)

// replyCase is one query answer's fields, path not yet encoded.
type replyCase struct {
	ok            bool
	path          []parmp.Config
	rounds        int
	growDone, hit bool
	serveUS       float64
}

// found is the path a handler holds for c: a miss carries none.
func (c replyCase) found() []parmp.Config {
	if !c.ok {
		return nil
	}
	return c.path
}

// appended is the reply handleQuery writes for c.
func (c replyCase) appended() []byte {
	return append(appendQueryResponse(nil, c.ok, encodePath(c.found()), c.rounds, c.growDone, c.hit, c.serveUS), '\n')
}

func (c replyCase) reference() []byte {
	return referenceReply(referenceResponse(c.ok, c.found(), c.rounds, c.growDone, c.hit, c.serveUS))
}

// appendedBatch is the reply handleBatch writes for cases, composed as
// it composes one; a batch result carries serve_us 0.
func appendedBatch(cases []replyCase, serveUS float64) []byte {
	b := []byte(`{"results":[`)
	for i, c := range cases {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendQueryResponse(b, c.ok, encodePath(c.found()), c.rounds, c.growDone, c.hit, 0)
	}
	return append(appendServeUS(append(b, ']'), serveUS), '\n')
}

func referenceBatch(cases []replyCase, serveUS float64) []byte {
	results := make([]QueryResponse, len(cases))
	for i, c := range cases {
		results[i] = referenceResponse(c.ok, c.found(), c.rounds, c.growDone, c.hit, 0)
	}
	return referenceReply(BatchResponse{Results: results, ServeUS: serveUS})
}

// checkReply fails t unless the appended replies for c, alone and inside
// batches, equal the parent encoder's byte for byte.
func checkReply(t *testing.T, name string, c replyCase) {
	t.Helper()
	if got, want := c.appended(), c.reference(); !bytes.Equal(got, want) {
		t.Fatalf("%s: query reply\n got %s\nwant %s", name, got, want)
	}
	miss := replyCase{rounds: c.rounds, growDone: c.growDone}
	for _, batch := range [][]replyCase{{c}, {c, miss, c}} {
		if got, want := appendedBatch(batch, c.serveUS), referenceBatch(batch, c.serveUS); !bytes.Equal(got, want) {
			t.Fatalf("%s: batch of %d\n got %s\nwant %s", name, len(batch), got, want)
		}
	}
}

// The traps of encoding/json's float form: exponent form below 1e-6 and
// from 1e21 with a negative exponent's leading zero dropped, -0, the
// smallest subnormal; and omitempty dropping an ok answer's empty path.
func TestQueryReplyMatchesEncoder(t *testing.T) {
	path := []parmp.Config{{0.05, 0.05, 0.05}, {0.3141592653589793, 0.5, 0.75}, {0.95, 0.95, 0.95}}
	traps := []parmp.Config{
		{1.5e-7, 1e-7, -1e-7, 1e-6, -1e-6, math.Nextafter(1e-6, 0)},
		{1e21, -1e21, math.Nextafter(1e21, 0), 1e20, 1e-10, 1e-100},
		{math.Copysign(0, -1), 0, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64},
		{123456789.123, 1, -1, 2.5e-300, 0.1, 1.0 / 3},
	}
	for _, tc := range []struct {
		name string
		c    replyCase
	}{
		{"miss", replyCase{}},
		{"miss grown", replyCase{rounds: 3, growDone: true, serveUS: 41.7}},
		{"hit", replyCase{ok: true, path: path, rounds: 2, growDone: true, hit: true, serveUS: 12.345}},
		{"found", replyCase{ok: true, path: path, rounds: 1, serveUS: 830.25}},
		{"ok empty path", replyCase{ok: true, path: []parmp.Config{}, rounds: 4, growDone: true}},
		{"ok nil path", replyCase{ok: true, rounds: 4, hit: true, serveUS: 3}},
		{"serve_us 1.5e-7", replyCase{ok: true, path: path, serveUS: 1.5e-7}},
		{"serve_us 1e-7", replyCase{serveUS: 1e-7}},
		{"serve_us 1e21", replyCase{ok: true, path: path, hit: true, serveUS: 1e21}},
		{"serve_us 1e-6", replyCase{serveUS: 1e-6}},
		{"serve_us 5e-324", replyCase{serveUS: 5e-324}},
		{"rounds 0", replyCase{ok: true, path: path, rounds: 0, hit: true, serveUS: 0}},
		{"rounds large", replyCase{ok: true, path: path, rounds: 1 << 40, growDone: true}},
		{"float traps", replyCase{ok: true, path: traps, rounds: 7, growDone: true, hit: true, serveUS: 2e-7}},
		{"empty configuration", replyCase{ok: true, path: []parmp.Config{{}, {0.5}}, rounds: 1}},
		{"one waypoint", replyCase{ok: true, path: path[:1], rounds: 1, hit: true, serveUS: 9.5}},
	} {
		checkReply(t, tc.name, tc.c)
	}
	// Batches mixing hits and misses of different paths.
	cases := []replyCase{
		{ok: true, path: path, rounds: 2, growDone: true, hit: false},
		{rounds: 2, growDone: true},
		{ok: true, path: traps, rounds: 2, growDone: true, hit: true},
		{ok: true, path: path, rounds: 2, growDone: true, hit: true},
		{ok: true, path: []parmp.Config{}, rounds: 2, growDone: true},
	}
	for _, serveUS := range []float64{0, 1.5e-7, 317.75} {
		if got, want := appendedBatch(cases, serveUS), referenceBatch(cases, serveUS); !bytes.Equal(got, want) {
			t.Fatalf("mixed batch, serve_us %v:\n got %s\nwant %s", serveUS, got, want)
		}
	}
}

// Raw float bits for every coordinate and for serve_us: the fuzzer walks
// the exponent boundaries the table only samples. Non-finite values are
// outside the contract (no request or roadmap carries one, and
// encoding/json refuses them).
func FuzzQueryReplyMatchesEncoder(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(true, true, true, 3, 12.345, uint8(3), bits(0.05, 0.05, 0.05, 0.95, 0.95, 0.95))
	f.Add(true, false, false, 0, 1.5e-7, uint8(3), bits(1e-7, -0.0, 5e-324, 1e21, 1e20, 1e-6))
	f.Add(false, true, false, 1, 0.0, uint8(2), []byte{})
	f.Add(true, true, true, 1<<30, 1e21, uint8(7), bits(math.MaxFloat64, -1e-300, 0.1))
	f.Fuzz(func(t *testing.T, ok, growDone, hit bool, rounds int, serveUS float64, dim uint8, coords []byte) {
		if math.IsNaN(serveUS) || math.IsInf(serveUS, 0) {
			return
		}
		d := 1 + int(dim%7)
		var path []parmp.Config
		for i := 0; i+8*d <= len(coords); i += 8 * d {
			q := make(parmp.Config, d)
			for j := range q {
				q[j] = math.Float64frombits(binary.LittleEndian.Uint64(coords[i+8*j:]))
				if math.IsNaN(q[j]) || math.IsInf(q[j], 0) {
					return
				}
			}
			path = append(path, q)
		}
		checkReply(t, "fuzz", replyCase{ok: ok, path: path, rounds: rounds, growDone: growDone, hit: hit, serveUS: serveUS})
	})
}

// reencodes fails t unless reply is what encoding/json writes for its own
// decoding into v: a float reads back to the same shortest form, so a
// reply the parent encoder would have written is a fixed point.
func reencodes(t *testing.T, reply []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(reply, v); err != nil {
		t.Fatalf("reply %s: %v", reply, err)
	}
	if want := referenceReply(v); !bytes.Equal(reply, want) {
		t.Fatalf("reply differs from encoding/json's:\n got %s\nwant %s", reply, want)
	}
}

// post sends body to path and returns the raw 200 reply.
func post(t *testing.T, h http.Handler, path string, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("%s: status %d, content type %q: %s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	return rec.Body.Bytes()
}

// A hit is its miss again: for every solved pair the cached reply equals
// the reply that found the path, byte for byte, except cache_hit and
// serve_us — through /v1/query, and inside one /v1/batch that asks the
// same pair twice. Every reply is also encoding/json's own.
func TestServeHitRepeatsMiss(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	h := srv.Handler()
	pairs := [][2][]float64{
		{{0.05, 0.05, 0.05}, {0.95, 0.95, 0.95}},
		{{0.1, 0.9, 0.1}, {0.95, 0.95, 0.95}},
		{{0.2, 0.2, 0.8}, {0.8, 0.8, 0.2}},
		{{0.1, 0.9, 0.1}, {0.9, 0.1, 0.9}},
	}
	// Two tenants, one per endpoint, so each starts from an empty cache.
	// A wrong-dimension query builds each one and is never cached.
	querySpec, batchSpec := testSpec(), testSpec()
	batchSpec.Seed = 2
	for _, sp := range []Spec{querySpec, batchSpec} {
		post(t, h, "/v1/query", QueryRequest{Spec: sp, Start: []float64{0.1}, Goal: []float64{0.9}})
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	waitGrown(t, ts.Client(), ts.URL, 10*time.Second)
	if n := len(srv.Pool().Stats()); n != 2 {
		t.Fatalf("%d tenants, want 2", n)
	}

	// The part of a reply both asks share: everything before cache_hit.
	shared := func(reply []byte, hit bool) []byte {
		t.Helper()
		mark := []byte(`,"cache_hit":false,"serve_us":`)
		if hit {
			mark = []byte(`,"cache_hit":true,"serve_us":`)
		}
		cut := bytes.Index(reply, mark)
		if cut < 0 {
			t.Fatalf("reply %s does not carry %s", reply, mark)
		}
		return reply[:cut]
	}
	solved := 0
	for i, p := range pairs {
		req := QueryRequest{Spec: querySpec, Start: p[0], Goal: p[1]}
		miss := post(t, h, "/v1/query", req)
		var first QueryResponse
		reencodes(t, miss, &first)
		if !first.OK {
			continue
		}
		solved++
		hit := post(t, h, "/v1/query", req)
		reencodes(t, hit, new(QueryResponse))
		if a, b := shared(miss, false), shared(hit, true); !bytes.Equal(a, b) {
			t.Fatalf("pair %d: hit\n %s\nrepeats miss\n %s", i, b, a)
		}
	}
	if solved == 0 {
		t.Fatal("no pair solvable through /v1/query after growth")
	}

	queries := make([]BatchQuery, 2*len(pairs))
	for i, p := range pairs {
		queries[i] = BatchQuery{Start: p[0], Goal: p[1]}
		queries[i+len(pairs)] = queries[i]
	}
	reply := post(t, h, "/v1/batch", BatchRequest{Spec: batchSpec, Queries: queries})
	reencodes(t, reply, new(BatchResponse))
	var raw struct{ Results []json.RawMessage }
	if err := json.Unmarshal(reply, &raw); err != nil || len(raw.Results) != len(queries) {
		t.Fatalf("batch reply %s: %v", reply, err)
	}
	solved = 0
	for i := range pairs {
		miss, hit := raw.Results[i], raw.Results[i+len(pairs)]
		if bytes.HasPrefix(miss, []byte(`{"ok":false`)) {
			if !bytes.Equal(miss, hit) {
				t.Fatalf("batch pair %d: unsolved %s, asked again %s", i, miss, hit)
			}
			continue
		}
		solved++
		if a, b := shared(miss, false), shared(hit, true); !bytes.Equal(a, b) {
			t.Fatalf("batch pair %d: hit\n %s\nrepeats miss\n %s", i, b, a)
		}
	}
	if solved == 0 {
		t.Fatal("no pair solvable through /v1/batch after growth")
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"parmp"
)

// QueryRequest is the body of POST /v1/query: the tenant spec plus one
// (start, goal) query.
type QueryRequest struct {
	Spec  Spec      `json:"spec"`
	Start []float64 `json:"start"`
	Goal  []float64 `json:"goal"`
	// K is the attachment count (PRM); 0 uses the server default.
	K int `json:"k,omitempty"`
}

// QueryResponse answers one query. A planning miss (no path yet) is a
// 200 with OK=false — only transport, validation and capacity problems
// are non-2xx.
type QueryResponse struct {
	OK   bool        `json:"ok"`
	Path [][]float64 `json:"path,omitempty"`
	// Rounds is the snapshot round that answered; GrowDone reports
	// whether background growth has reached its target.
	Rounds   int  `json:"rounds"`
	GrowDone bool `json:"grow_done"`
	// CacheHit marks answers served from the path cache.
	CacheHit bool `json:"cache_hit"`
	// ServeUS is the server-side processing time in microseconds.
	ServeUS float64 `json:"serve_us"`
}

// BatchRequest is the body of POST /v1/batch: one tenant spec and many
// queries, answered in order against one snapshot.
type BatchRequest struct {
	Spec    Spec         `json:"spec"`
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one (start, goal, k) in a client-side batch.
type BatchQuery struct {
	Start []float64 `json:"start"`
	Goal  []float64 `json:"goal"`
	K     int       `json:"k,omitempty"`
}

// BatchResponse answers a client-side batch, aligned with the request's
// queries.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
	ServeUS float64         `json:"serve_us"`
}

// MutateRequest is the body of POST /v1/env/mutate: the tenant spec
// plus an ordered mutation batch, applied atomically (all commit or the
// tenant's world is untouched).
type MutateRequest struct {
	Spec      Spec           `json:"spec"`
	Mutations []MutationSpec `json:"mutations"`
}

// MutationSpec is one environment edit in a mutate request. Op selects
// the kind and which fields are read:
//
//	"add"     Box or Sphere (exactly one)
//	"remove"  Index
//	"move"    Index, By
type MutationSpec struct {
	Op     string      `json:"op"`
	Box    *BoxSpec    `json:"box,omitempty"`
	Sphere *SphereSpec `json:"sphere,omitempty"`
	Index  int         `json:"index,omitempty"`
	By     []float64   `json:"by,omitempty"`
}

// BoxSpec is an axis-aligned box obstacle spanning [lo, hi].
type BoxSpec struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// SphereSpec is a sphere obstacle.
type SphereSpec struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

// mutation converts the wire spec to a parmp.Mutation, or rejects it.
func (m MutationSpec) mutation() (parmp.Mutation, error) {
	switch m.Op {
	case "add":
		switch {
		case m.Box != nil && m.Sphere == nil:
			// NewBoxObstacle panics on corners it cannot order; a request
			// body must get an error instead.
			lo, hi := m.Box.Lo, m.Box.Hi
			if len(lo) != len(hi) {
				return nil, fmt.Errorf(`box "lo" has %d coordinates, "hi" has %d`, len(lo), len(hi))
			}
			for i := range lo {
				if lo[i] > hi[i] {
					return nil, fmt.Errorf("box lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i])
				}
			}
			return parmp.AddObstacle{Obstacle: parmp.NewBoxObstacle(m.Box.Lo, m.Box.Hi)}, nil
		case m.Sphere != nil && m.Box == nil:
			return parmp.AddObstacle{Obstacle: parmp.NewSphereObstacle(m.Sphere.Center, m.Sphere.Radius)}, nil
		default:
			return nil, fmt.Errorf(`op "add" needs exactly one of "box" or "sphere"`)
		}
	case "remove":
		return parmp.RemoveObstacle{Index: m.Index}, nil
	case "move":
		if len(m.By) == 0 {
			return nil, fmt.Errorf(`op "move" needs a non-empty "by" vector`)
		}
		return parmp.MoveObstacle{Index: m.Index, By: m.By}, nil
	default:
		return nil, fmt.Errorf("unknown mutation op %q (want add, remove or move)", m.Op)
	}
}

// MutateResponse reports a committed mutation batch: the new
// environment epoch and snapshot generation, the incremental-repair
// work this batch cost, and the server-side latency.
type MutateResponse struct {
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	// Repair work for this batch: deltas applied, state re-validated,
	// state removed, frontier branches regrafted.
	Deltas       int     `json:"deltas"`
	CheckedNodes int     `json:"checked_nodes"`
	CheckedEdges int     `json:"checked_edges"`
	RemovedNodes int     `json:"removed_nodes"`
	RemovedEdges int     `json:"removed_edges"`
	Grafted      int     `json:"grafted"`
	ServeUS      float64 `json:"serve_us"`
}

// StatsResponse is GET /v1/stats.
type StatsResponse struct {
	UptimeSec float64       `json:"uptime_sec"`
	Tenants   []TenantStats `json:"tenants"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies (env_text is the only large field).
const maxBodyBytes = 1 << 20

// replyFields bounds the bytes of a query answer other than its path.
const replyFields = 128

// maxBatchQueries bounds one client-side batch.
const maxBatchQueries = 1024

// Server is the HTTP planning service: a Pool behind these endpoints.
//
//	POST /v1/query       one query, answered on the handler's goroutine
//	POST /v1/batch       many queries answered against one snapshot
//	POST /v1/env/mutate  edit a tenant's world; incremental repair
//	GET  /v1/stats       pool and per-tenant counters
//	GET  /healthz        liveness
type Server struct {
	cfg   Config
	pool  *Pool
	mux   *http.ServeMux
	start time.Time
	specs specMemo // /v1/query's raw specs, canonicalised once
}

// New creates a Server with cfg's defaults applied.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		pool:  NewPool(cfg),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/env/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool returns the server's engine pool (mainly for tests and stats).
func (s *Server) Pool() *Pool { return s.pool }

// Close shuts the pool down.
func (s *Server) Close() { s.pool.Close() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode reads a bounded JSON body.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// tenantFor canonicalizes and resolves the request's tenant, writing
// the error response on failure.
func (s *Server) tenantFor(w http.ResponseWriter, spec Spec) *tenant {
	canon, err := spec.Canonical(s.cfg.GrowRounds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return s.tenantKeyed(w, canon.Key(), canon)
}

// tenantKeyed resolves the tenant of a canonical spec and its key,
// writing the error response on failure.
func (s *Server) tenantKeyed(w http.ResponseWriter, key string, canon Spec) *tenant {
	t, err := s.pool.tenant(key, canon)
	switch {
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "tenant build failed: %v", err)
	}
	return t
}

// admit takes one slot of t's admission gate without waiting, or writes
// the refusal: 503 for a tenant that was evicted or whose pool is
// closing, 429 with a Retry-After hint when QueueDepth requests are
// already in flight — a saturated tenant sheds load rather than stack
// searches without bound. The caller releases the slot.
func (s *Server) admit(w http.ResponseWriter, t *tenant) bool {
	if t.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "tenant closed (evicted or pool shutting down); retry")
		return false
	}
	select {
	case t.gate <- struct{}{}:
		return true
	default:
		t.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant busy (%d requests in flight); retry", s.cfg.QueueDepth)
		return false
	}
}

// release returns the slot admit took.
func (t *tenant) release() { <-t.gate }

// answer runs one query against snap on the calling goroutine and caches
// a found path, encoded once, under snap's generation. The tag is what
// keeps a query that raced a rollover or a mutate out of the cache: put
// drops an entry whose generation is no longer the cache's.
func (t *tenant) answer(snap *parmp.Snapshot, key string, start, goal parmp.Config, k int) ([]byte, bool) {
	path, ok := snap.Query(start, goal, k)
	enc := encodePath(path) // a miss's path is nil, and so is its encoding
	if ok {
		t.cache.put(key, int64(snap.Generation()), enc)
	}
	return enc, ok
}

// encodePath returns the JSON array encoding/json writes for path as a
// [][]float64, or nil for an empty path, which a reply omits. Each of a
// path's configurations is non-nil and finite: an endpoint or a node.
func encodePath(path []parmp.Config) []byte {
	if len(path) == 0 {
		return nil
	}
	b := make([]byte, 0, len(path)*(3+20*len(path[0])))
	for _, q := range path {
		b = append(b, ',', '[')
		for j, v := range q {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	b[0] = '['
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21, a negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); string(b[n-4:n-1]) == "e-0" {
			b = append(b[:n-2], b[n-1])
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendQueryResponse appends the QueryResponse object encoding/json
// writes for these fields, path being an answer's encodePath bytes. It
// writes every query answer: a /v1/query reply and each /v1/batch result.
func appendQueryResponse(b []byte, ok bool, path []byte, rounds int, growDone, cacheHit bool, serveUS float64) []byte {
	b = strconv.AppendBool(append(b, `{"ok":`...), ok)
	if len(path) > 0 {
		b = append(append(b, `,"path":`...), path...)
	}
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(rounds), 10)
	b = strconv.AppendBool(append(b, `,"grow_done":`...), growDone)
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), cacheHit)
	return appendServeUS(b, serveUS)
}

// appendServeUS closes a reply object with its serve_us field.
func appendServeUS(b []byte, serveUS float64) []byte {
	return append(appendFloat(append(b, `,"serve_us":`...), serveUS), '}')
}

// writeReply sends b as a 200, newline-terminated as json.Encoder ends one.
func writeReply(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
}

// bodyBufs holds the buffers /v1/query bodies are read into; one grown
// past maxPooledBody is left to the collector.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// readQuery reads a /v1/query body and resolves its tenant, or writes the
// error response and returns a nil tenant. A body scanQuery reads whose
// raw spec is memoized skips encoding/json, Canonical and Key. Every other
// body, and so every error, takes the path decode and tenantFor take,
// and a scanned spec is memoized once that path has succeeded on it.
func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (t *tenant, start, goal []float64, k int) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	_, err := buf.ReadFrom(body)
	q, scanned := scanQuery(buf.Bytes())
	if scanned = scanned && err == nil; scanned {
		if e, ok := s.specs.get(q.spec); ok {
			return s.tenantKeyed(w, e.key, e.spec), q.start, q.goal, q.k
		}
	}
	// json.Decoder answers from a body's first value and ignores what
	// follows, even past maxBodyBytes: it reads what was read, then the
	// rest of the stream.
	var qr QueryRequest
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), body)).Decode(&qr); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, nil, 0
	}
	if t = s.tenantFor(w, qr.Spec); t != nil && scanned {
		s.specs.put(q.spec, memoEntry{spec: t.spec, key: t.key})
	}
	return t, qr.Start, qr.Goal, qr.K
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t, start, goal, k := s.readQuery(w, r)
	if t == nil {
		return
	}
	if k == 0 {
		k = s.cfg.DefaultK
	}
	key := cacheKey(start, goal, k)

	// Fast path: answer straight from the cache, before admission. The
	// cache is keyed on the snapshot generation, not rounds: an
	// environment mutation publishes a repaired snapshot without growing,
	// and its paths must not be served from the pre-mutation cache.
	snap := t.eng.Snapshot()
	if path, ok := t.cache.get(key, int64(snap.Generation())); ok {
		t.queries.Add(1)
		t.cacheHits.Add(1)
		writeReply(w, appendQueryResponse(make([]byte, 0, len(path)+replyFields),
			true, path, snap.Rounds(), t.growDone.Load(), true, us(time.Since(t0))))
		return
	}

	if !s.admit(w, t) {
		return
	}
	defer t.release()
	t.queries.Add(1)
	path, ok := t.answer(snap, key, start, goal, k)
	writeReply(w, appendQueryResponse(make([]byte, 0, len(path)+replyFields),
		ok, path, snap.Rounds(), t.growDone.Load(), false, us(time.Since(t0))))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var br BatchRequest
	if !decode(w, r, &br) {
		return
	}
	if len(br.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(br.Queries) > maxBatchQueries {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds %d", len(br.Queries), maxBatchQueries)
		return
	}
	t := s.tenantFor(w, br.Spec)
	if t == nil {
		return
	}
	// One slot for the whole batch: it is one request in flight.
	if !s.admit(w, t) {
		return
	}
	defer t.release()
	snap := t.eng.Snapshot()
	gen := int64(snap.Generation())
	rounds := snap.Rounds()
	grown := t.growDone.Load()
	b := append(make([]byte, 0, replyFields*len(br.Queries)), `{"results":[`...)
	t.queries.Add(int64(len(br.Queries)))
	t.batches.Add(1)

	// A batch is its queries, answered in order as handleQuery answers
	// one: cache probe, then a search whose path is cached the moment it
	// is found — so a pair repeated inside the batch hits the second time.
	for i, q := range br.Queries {
		k := q.K
		if k == 0 {
			k = s.cfg.DefaultK
		}
		start, goal := parmp.Config(q.Start), parmp.Config(q.Goal)
		key := cacheKey(start, goal, k)
		path, hit := t.cache.get(key, gen)
		ok := hit
		if hit {
			t.cacheHits.Add(1)
		} else {
			t.batched.Add(1)
			path, ok = t.answer(snap, key, start, goal, k)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendQueryResponse(b, ok, path, rounds, grown, hit, 0)
	}
	writeReply(w, appendServeUS(append(b, ']'), us(time.Since(t0))))
}

// handleMutate edits a tenant's environment through the engine's
// incremental repair path. Mutations in one request commit atomically;
// a rejected mutation (unknown op, degenerate obstacle, bad index,
// out-of-bounds move) is a 400 with the world untouched. On commit the
// path cache is retagged to the repaired snapshot's generation, so no
// query answered after this response can carry a pre-mutation path.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var mr MutateRequest
	if !decode(w, r, &mr) {
		return
	}
	if len(mr.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation batch")
		return
	}
	muts := make([]parmp.Mutation, len(mr.Mutations))
	for i, ms := range mr.Mutations {
		m, err := ms.mutation()
		if err != nil {
			writeError(w, http.StatusBadRequest, "mutation %d: %v", i, err)
			return
		}
		muts[i] = m
	}
	t := s.tenantFor(w, mr.Spec)
	if t == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Serialize mutations per tenant: concurrent mutate requests apply
	// in some order, each seeing the world the previous one left.
	t.mu.Lock()
	rep, err := t.eng.ApplyDelta(ctx, muts...)
	if err != nil {
		t.mu.Unlock()
		switch {
		case errors.Is(err, parmp.ErrStopped):
			writeError(w, http.StatusRequestTimeout, "mutation timed out; world unchanged: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	snap := t.eng.Snapshot()
	t.cache.invalidate(int64(snap.Generation()))
	t.mu.Unlock()
	t.repairs.Add(1)
	t.repairUS.Add(time.Since(t0).Microseconds())
	writeJSON(w, http.StatusOK, MutateResponse{
		Epoch:        snap.Epoch(),
		Generation:   snap.Generation(),
		Deltas:       rep.Deltas,
		CheckedNodes: rep.CheckedNodes,
		CheckedEdges: rep.CheckedEdges,
		RemovedNodes: rep.RemovedNodes,
		RemovedEdges: rep.RemovedEdges,
		Grafted:      rep.Grafted,
		ServeUS:      us(time.Since(t0)),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSec: time.Since(s.start).Seconds(),
		Tenants:   s.pool.Stats(),
	})
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

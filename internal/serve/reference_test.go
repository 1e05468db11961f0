package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"

	"parmp"
)

// The query replies as the server encoded them before a path was encoded
// once: encoding/json over a QueryResponse or a BatchResponse, through
// json.Encoder, trailing newline included. appendQueryResponse and
// encodePath are held to these byte for byte. The /v1/query handler as it
// read a body before a query was scanned is kept at the end.

// pathFloats converts a path for JSON encoding.
func pathFloats(path []parmp.Config) [][]float64 {
	out := make([][]float64, len(path))
	for i, q := range path {
		out[i] = q
	}
	return out
}

// referenceResponse is the QueryResponse the handlers encoded for these
// fields, a query reply or a batch result.
func referenceResponse(ok bool, path []parmp.Config, rounds int, growDone, cacheHit bool, serveUS float64) QueryResponse {
	return QueryResponse{
		OK: ok, Path: pathFloats(path),
		Rounds: rounds, GrowDone: growDone,
		CacheHit: cacheHit, ServeUS: serveUS,
	}
}

// referenceReply is the body writeJSON sent for v, a QueryResponse or a
// BatchResponse.
func referenceReply(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// referenceQuery is handleQuery as it read a body before a query was
// scanned: every request decoded by json.Decoder over the bounded body
// (decode), then canonicalised, keyed and resolved (tenantFor). The
// live handler's statuses and bodies are held to it.
func (s *Server) referenceQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var qr QueryRequest
	if !decode(w, r, &qr) {
		return
	}
	t := s.tenantFor(w, qr.Spec)
	if t == nil {
		return
	}
	k := qr.K
	if k == 0 {
		k = s.cfg.DefaultK
	}
	start, goal := parmp.Config(qr.Start), parmp.Config(qr.Goal)
	key := cacheKey(start, goal, k)
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

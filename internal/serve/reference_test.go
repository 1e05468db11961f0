package serve

import (
	"bytes"
	"encoding/json"

	"parmp"
)

// The query replies as the server encoded them before a path was encoded
// once: encoding/json over a QueryResponse or a BatchResponse, through
// json.Encoder, trailing newline included. appendQueryResponse and
// encodePath are held to these byte for byte.

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

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// The trust boundary: a Spec arrives as JSON in every POST body.
// Canonical must never panic on one, and whatever it accepts is inside
// the size limits and is its own canonical form — otherwise two requests
// for one tenant could land on two engines.
func FuzzSpecCanonical(f *testing.F) {
	for _, s := range []string{
		`{"env":"med-cube"}`,
		`{"env":" MED-CUBE ","procs":8,"samples":16,"seed":1,"strategy":"Repartition","rounds":3}`,
		`{"env":"med-cube","procs":400000}`,
		`{"env":"med-cube","regions":8192,"samples":512,"rounds":2}`,
		`{"env":"med-cube","procs":1024,"samples":512,"rounds":1}`,
		`{"env":"med-cube","regions":-5,"samples":-1,"rounds":-2,"portfolio":-3}`,
		`{"env_text":"bounds 0 0 1 1\nbox .2 .2 .4 .4","robot":"se2:0.05,0.02"}`,
		`{"env":"walls","planner":"rrtconnect","root":[0.05,0.05,0.05],"goal":[0.95,0.95,0.95]}`,
		`{"env":"walls","portfolio":2,"restarts":"LUBY","root":[0.05,0.05,0.05],"goal":[0.95,0.95,0.95]}`,
		`{"env":"med-cube","robot":"rigid:-1,1,1"}`,
		`{"env":"nope"}`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		if json.Unmarshal(body, &sp) != nil {
			return
		}
		c, err := sp.Canonical(3)
		if err != nil {
			return
		}
		if c.Procs < 1 || c.Procs > maxProcs || c.Regions < 0 || c.Regions > maxRegions ||
			c.Samples < 1 || c.Samples > maxSamples || c.Rounds < 1 || c.Rounds > maxRounds ||
			c.Portfolio < 0 || c.Portfolio > maxPortfolio || c.growWork() > maxGrowWork {
			t.Fatalf("accepted spec outside the size limits: %+v", c)
		}
		again, err := c.Canonical(3)
		if err != nil {
			t.Fatalf("canonical spec %+v rejected by Canonical: %v", c, err)
		}
		if again.Key() != c.Key() {
			t.Fatalf("Canonical is not a fixed point:\n %s\n %s", c.Key(), again.Key())
		}
	})
}

// Arbitrary bytes to the three POST endpoints of one small live server:
// a handler never panics and never answers 5xx (the one documented 503,
// a closed pool or canceled tenant, cannot occur here), a 200 query or
// batch reply is what encoding/json writes for its own decoding, and a
// path in it runs from the request's start to the request's goal. Tenants the
// fuzzer invents are kept tiny — the size limits themselves are
// FuzzSpecCanonical's subject — so a mutated "procs" costs milliseconds,
// not the shared machine's memory.
func FuzzServeQuery(f *testing.F) {
	const spec = `"spec":{"env":"small-cube","procs":2,"regions":8,"samples":4,"rounds":1}`
	for _, s := range []string{
		`{` + spec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`,
		`{` + spec + `,"start":[0.1],"goal":[0.9,0.9,0.9],"k":-1}`,
		`{` + spec + `,"queries":[{"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]},{"start":[2,2,2],"goal":[0.9,0.9,0.9],"k":3}]}`,
		`{` + spec + `,"queries":[]}`,
		`{` + spec + `,"mutations":[{"op":"add","sphere":{"center":[0.5,0.9,0.5],"radius":0.05}}]}`,
		`{` + spec + `,"mutations":[{"op":"add","sphere":{"center":[0.5,0.5,0.5]}}]}`,
		`{` + spec + `,"mutations":[{"op":"add","box":{"lo":[0,0,0],"hi":[0.1,0.1,0.1]},"sphere":{"center":[0.5,0.5,0.5],"radius":0.1}}]}`,
		`{` + spec + `,"mutations":[{"op":"add","box":{"lo":[0,0,0],"hi":[0]}}]}`,
		`{` + spec + `,"mutations":[{"op":"add","box":{"lo":[0.5,0.5,0.5],"hi":[0.4,0.6,0.6]}}]}`,
		`{` + spec + `,"mutations":[{"op":"remove","index":7},{"op":"move","index":0},{"op":"teleport"}]}`,
		`{"spec":{"env":"nope"}}`,
		`{"spec":{"env_text":"bounds nan nan 1 1"},"start":[0.1,0.1],"goal":[0.9,0.9]}`,
		`{"spec":{"env_text":"bounds 0 0 1 1\nsphere .5 .5 nan"},"start":[0.1,0.1],"goal":[0.9,0.9]}`,
		`{"spec":{"env_text":"bounds 0 0 1 1\nbox .2 .2 .4 .4\nbounds 0 0 0 1 1 1"},"start":[0.1,0.1],"goal":[0.9,0.9]}`,
		`{"spec":{"env_text":"bounds 0 0 1 1\nbox .4 .4 .6 .6","robot":"se2:0.02,0.01","procs":2,"regions":4,"samples":4,"rounds":1},"start":[0.1,0.1,0],"goal":[0.9,0.9,1]}`,
		`{"spec":{"env":"small-cube","planner":"rrt","root":[0.1,0.1,0.1],"procs":2,"regions":4,"samples":4,"rounds":1},"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`,
		`{"spec":{"env":"med-cube","procs":400000}}`,
		`not json`,
		``,
	} {
		f.Add([]byte(s))
	}
	cfg := testConfig()
	cfg.CacheSize = 8
	srv := New(cfg)
	defer srv.Close()

	// decode reads body as the handlers do: its first JSON value.
	decode := func(body []byte, v any) bool {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var head struct {
			Spec Spec `json:"spec"`
		}
		if decode(body, &head) {
			if c, err := head.Spec.Canonical(cfg.GrowRounds); err == nil &&
				(c.Procs > 8 || c.Regions > 64 || c.Samples > 16 || c.Rounds > 2 || c.Portfolio > 2 || len(c.EnvText) > 512) {
				t.Skip("tenant too large for a fuzz iteration")
			}
		}
		for _, path := range []string{"/v1/query", "/v1/batch", "/v1/env/mutate"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK || path == "/v1/env/mutate" {
				continue
			}
			// What was asked, read with the endpoint's own request type,
			// against what was answered.
			var queries []BatchQuery
			var results []QueryResponse
			var asked, answered bool
			var reply any
			if path == "/v1/query" {
				var qr QueryRequest
				asked = decode(body, &qr)
				queries = []BatchQuery{{Start: qr.Start, Goal: qr.Goal}}
				results = make([]QueryResponse, 1)
				answered = json.Unmarshal(rec.Body.Bytes(), &results[0]) == nil
				reply = results[0]
			} else {
				var breq BatchRequest
				var bresp BatchResponse
				asked = decode(body, &breq)
				answered = json.Unmarshal(rec.Body.Bytes(), &bresp) == nil
				queries, results = breq.Queries, bresp.Results
				reply = bresp
			}
			if !asked || !answered || len(results) != len(queries) {
				t.Fatalf("%s: 200 with request decoded=%v, reply decoded=%v, %d results for %d queries",
					path, asked, answered, len(results), len(queries))
			}
			if want := referenceReply(reply); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: reply differs from encoding/json's:\n got %s\nwant %s", path, rec.Body, want)
			}
			for i, res := range results {
				if !res.OK {
					continue
				}
				if len(res.Path) < 2 || !slices.Equal(res.Path[0], queries[i].Start) ||
					!slices.Equal(res.Path[len(res.Path)-1], queries[i].Goal) {
					t.Fatalf("%s query %d: path %v does not run from %v to %v", path, i, res.Path, queries[i].Start, queries[i].Goal)
				}
			}
		}
	})
}

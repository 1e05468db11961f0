package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// scanSpec is the raw spec of the scan corpus: a tenant small enough to
// build in a fuzz iteration.
const scanSpec = `{"env":"small-cube","procs":2,"regions":8,"samples":4,"rounds":1}`

// scanBodies are /v1/query bodies and whether scanQuery reads them: the
// shape json.Marshal writes for a QueryRequest, and the traps around it.
var scanBodies = []struct {
	body string
	ok   bool
}{
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`, true},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":3}`, true},
	{" \t\r\n{ \"goal\" : [ 0.9 , 0.9 , 0.9 ] , \"k\" : -4 , \"start\" : [1E-2,-0,0.1e+1], \"spec\" : " + scanSpec + " }\n", true},
	{`{"spec":{"env":"small-cube","env_text":"a \"}]\\\\ b","root":[[{}]]},"start":[0],"goal":[1]}`, true},
	{`{"spec":{},"start":[5e-324],"goal":[1.7976931348623157e308],"k":0}`, true},
	{`{"spec":` + scanSpec + `,"Start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"st\u0061rt":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"start":[0.2,0.2,0.2]}`, false},
	{`{"spec":` + scanSpec + `,"spec":{"env":"med-cube"},"start":[0.1],"goal":[0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":1,"k":2}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"extra":1}`, false},
	{`{"spec":null,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":null,"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,null],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":null}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":8.0}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":1e1}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],"k":99999999999999999999}`, false},
	{`{"spec":` + scanSpec + `,"start":[1e400,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[01,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[.5,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[1.,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[+1,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0x1p3,0.1,0.1],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[Infinity],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9],}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1,],"goal":[0.9,0.9,0.9]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]} {}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]}x`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1]}`, false},
	{`{"spec":` + scanSpec + `,"start":[0.1,0.1,0.1],"goal":[0.9,0.9,0.9]`, false},
	{`{"spec":{"env":"small-cube"},"start":[0.1],"goal":[0.9]}}`, false},
	{`{"spec":"small-cube","start":[0.1],"goal":[0.9]}`, false},
	{`{"spec":{"env":"small-cube"`, false},
	{`null`, false},
	{`[]`, false},
	{`{}`, false},
	{``, false},
}

func TestScanQueryShape(t *testing.T) {
	for _, c := range scanBodies {
		if _, ok := scanQuery([]byte(c.body)); ok != c.ok {
			t.Errorf("scanQuery(%s) accepted %v, want %v", c.body, ok, c.ok)
		}
	}
	q, _ := scanQuery([]byte(scanBodies[2].body))
	if string(q.spec) != scanSpec || q.k != -4 || fmt.Sprint(q.start, q.goal) != "[0.01 -0 1] [0.9 0.9 0.9]" ||
		!math.Signbit(q.start[1]) {
		t.Fatalf("scanned %s %v %v %d", q.spec, q.start, q.goal, q.k)
	}
}

// sameFloats is equality bit for bit, -0 apart from 0 and nil apart from
// empty.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// What scanQuery accepts, the parent decoder reads the same: whenever the
// scan accepts a body and its raw spec decodes, json.Decoder decodes the
// whole body to that spec and to the scanned start, goal and k.
func FuzzScanQueryMatchesDecoder(f *testing.F) {
	for _, c := range scanBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, ok := scanQuery(body)
		if !ok {
			return
		}
		var sp Spec
		if json.Unmarshal(q.spec, &sp) != nil {
			return
		}
		var qr QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&qr); err != nil {
			t.Fatalf("scanned %q, decoder: %v", body, err)
		}
		if !reflect.DeepEqual(qr.Spec, sp) || qr.Spec.Key() != sp.Key() {
			t.Fatalf("%q: decoded spec %+v, raw spec %+v", body, qr.Spec, sp)
		}
		if !sameFloats(qr.Start, q.start) || !sameFloats(qr.Goal, q.goal) || qr.K != q.k {
			t.Fatalf("%q: decoded %v %v %d, scanned %v %v %d", body, qr.Start, qr.Goal, qr.K, q.start, q.goal, q.k)
		}
	})
}

var serveUSField = regexp.MustCompile(`"serve_us":[^,}]*`)

// postRaw sends body to url and returns the status and the reply with
// serve_us masked.
func postRaw(t *testing.T, client *http.Client, url, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, serveUSField.ReplaceAllString(buf.String(), `"serve_us":0`)
}

// Every body a scan declines, and every error, answers as the parent
// handler did: each body of the table, posted to the live handler and to
// referenceQuery on one server, gets the same status and body, serve_us
// masked, every time it is posted — no failure is memoized.
func TestQueryMatchesParentDecode(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()
	ref := httptest.NewServer(http.HandlerFunc(srv.referenceQuery))
	defer ref.Close()

	spec := `{"env":"med-cube","procs":4,"regions":32,"samples":10}`
	query := `"start":[0.05,0.05,0.05],"goal":[0.95,0.95,0.95]`
	good := `{"spec":` + spec + `,` + query + `}`
	if code, reply := postRaw(t, live.Client(), live.URL+"/v1/query", good); code != http.StatusOK {
		t.Fatalf("fixture: %d %s", code, reply)
	}
	waitGrown(t, live.Client(), live.URL, 10*time.Second)

	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"scanned", good, http.StatusOK},
		{"trailing value", good + ` {"spec":{"env":"nope"}}`, http.StatusOK},
		{"trailing bytes", good + `]]garbage`, http.StatusOK},
		{"over the limit, first value inside", good + strings.Repeat(" ", maxBodyBytes), http.StatusOK},
		{"over the limit, first value past it", `{"spec":{"env_text":"` + strings.Repeat("a", maxBodyBytes) + `"},` + query + `}`, http.StatusBadRequest},
		{"unknown key", `{"spec":` + spec + `,` + query + `,"extra":[1,2]}`, http.StatusOK},
		{"case-variant keys", `{"Spec":` + spec + `,"START":[0.05,0.05,0.05],"Goal":[0.95,0.95,0.95],"K":3}`, http.StatusOK},
		{"escaped key", `{"spec":` + spec + `,"st\u0061rt":[0.05,0.05,0.05],"goal":[0.95,0.95,0.95]}`, http.StatusOK},
		{"duplicate start", `{"spec":` + spec + `,"start":[0.5],` + query + `}`, http.StatusOK},
		{"k 8.0", `{"spec":` + spec + `,` + query + `,"k":8.0}`, http.StatusBadRequest},
		{"type error inside spec", `{"spec":{"env":"med-cube","procs":"4"},` + query + `}`, http.StatusBadRequest},
		{"spec fails Canonical", `{"spec":{"env":"nope"},` + query + `}`, http.StatusBadRequest},
		{"spec over a size cap", `{"spec":{"env":"med-cube","procs":400000},` + query + `}`, http.StatusBadRequest},
		{"unbuildable spec", `{"spec":{"env":"med-cube","procs":8,"regions":1},` + query + `}`, http.StatusBadRequest},
		{"unparsable env_text", `{"spec":{"env_text":"garbage"},` + query + `}`, http.StatusBadRequest},
		{"start out of range", `{"spec":` + spec + `,"start":[1e400,0,0],"goal":[0.95,0.95,0.95]}`, http.StatusBadRequest},
		{"empty start", `{"spec":` + spec + `,"start":[],"goal":[0.95,0.95,0.95]}`, http.StatusOK},
		{"wrong dimension", `{"spec":` + spec + `,"start":[0.05],"goal":[0.95]}`, http.StatusOK},
		{"truncated", good[:len(good)-1], http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
	} {
		// The reference asks first, so a solvable pair is a cache hit for
		// every ask that is compared.
		postRaw(t, ref.Client(), ref.URL, tc.body)
		for i := 0; i < 2; i++ {
			code, got := postRaw(t, live.Client(), live.URL+"/v1/query", tc.body)
			wantCode, want := postRaw(t, ref.Client(), ref.URL, tc.body)
			if code != wantCode || got != want {
				t.Fatalf("%s, ask %d: live %d %.300s\nparent %d %.300s", tc.name, i, code, got, wantCode, want)
			}
			if code != tc.code {
				t.Fatalf("%s: status %d, want %d: %.300s", tc.name, code, tc.code, got)
			}
		}
	}
	if n := len(srv.specs.m); n != 1 {
		t.Fatalf("memo holds %d specs, want the one scanned body's", n)
	}
	if n := len(srv.Pool().Stats()); n != 1 {
		t.Fatalf("%d tenants, want 1", n)
	}
}

// The memo is per server, bounded, and holds no tenant: spellings of one
// spec share one tenant; a flood of spellings stays inside memoEntries and
// memoBytes; two servers with different GrowRounds canonicalise one raw
// spec each their own way; a memo hit for an evicted tenant rebuilds it.
func TestSpecMemoBoundsAndScope(t *testing.T) {
	query := `"start":[0.05,0.05,0.05],"goal":[0.95,0.95,0.95]`
	ask := func(t *testing.T, srv *Server, spec string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"spec":`+spec+`,`+query+`}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("spec %.80s: status %d: %s", spec, rec.Code, rec.Body)
		}
	}
	inBounds := func(t *testing.T, m *specMemo) {
		t.Helper()
		if len(m.m) > memoEntries || m.bytes > memoBytes {
			t.Fatalf("memo holds %d specs, %d bytes; bounds %d, %d", len(m.m), m.bytes, memoEntries, memoBytes)
		}
	}

	t.Run("spellings", func(t *testing.T) {
		srv := New(testConfig())
		defer srv.Close()
		spellings := []string{
			`{"env":"med-cube","procs":4,"regions":32,"samples":10}`,
			`{"samples":10,"regions":32,"procs":4,"env":"med-cube"}`,
			"{ \"env\" :\t\"med-cube\" ,\n\"procs\": 4, \"regions\": 32, \"samples\": 10 }",
			`{"ENV":" Med-Cube ","Procs":4,"regions":32,"samples":10,"seed":1,"rounds":1,"strategy":"REPARTITION"}`,
			`{"env":"med-cube","procs":4,"regions":32,"samples":10,"planner":"prm","robot":"point","root":[0.5,0.5,0.5]}`,
		}
		for range 2 {
			for _, sp := range spellings {
				ask(t, srv, sp)
			}
		}
		if n := len(srv.Pool().Stats()); n != 1 {
			t.Fatalf("%d spellings of one spec made %d tenants", len(spellings), n)
		}
		if n := len(srv.specs.m); n != len(spellings) {
			t.Fatalf("memo holds %d spellings, want %d", n, len(spellings))
		}
		var key string
		for raw, e := range srv.specs.m {
			if key == "" {
				key = e.key
			}
			if e.key != key {
				t.Fatalf("spelling %s keyed %s, another %s", raw, e.key, key)
			}
		}
	})

	t.Run("flood", func(t *testing.T) {
		srv := New(testConfig())
		defer srv.Close()
		for i := 0; i < 3*memoEntries; i++ {
			ask(t, srv, `{"env":"med-cube","procs":4,`+strings.Repeat(" ", i)+`"regions":32,"samples":10}`)
			inBounds(t, &srv.specs)
		}
		// Spellings a few kilobytes long bind the byte budget first.
		pad := memoBytes / (memoEntries / 4)
		for i := 0; i < memoEntries; i++ {
			ask(t, srv, `{"env":"med-cube","procs":4,`+strings.Repeat(" ", pad+i)+`"regions":32,"samples":10}`)
			inBounds(t, &srv.specs)
		}
		if len(srv.specs.m) == 0 {
			t.Fatal("memo is empty after a flood")
		}
		// One spelling larger than the whole budget is served, not memoized.
		srv.specs.m = nil
		ask(t, srv, `{"env":"med-cube","procs":4,`+strings.Repeat(" ", memoBytes)+`"regions":32,"samples":10}`)
		if len(srv.specs.m) != 0 {
			t.Fatal("a spec over the byte budget was memoized")
		}
	})

	t.Run("per server", func(t *testing.T) {
		raw := `{"env":"med-cube","procs":4,"regions":32,"samples":10}`
		for _, rounds := range []int{1, 2} {
			cfg := testConfig()
			cfg.GrowRounds = rounds
			srv := New(cfg)
			defer srv.Close()
			ask(t, srv, raw)
			ask(t, srv, raw)
			e, ok := srv.specs.get([]byte(raw))
			if !ok || e.spec.Rounds != rounds {
				t.Fatalf("GrowRounds %d: memoized %+v (found %v)", rounds, e.spec, ok)
			}
			if tn := srv.Pool().tenants[e.key]; tn == nil || tn.spec.Rounds != rounds {
				t.Fatalf("GrowRounds %d: no tenant growing to %d rounds", rounds, rounds)
			}
		}
	})

	t.Run("evicted tenant", func(t *testing.T) {
		srv := New(testConfig()) // MaxTenants 2
		defer srv.Close()
		a := `{"env":"med-cube","procs":4,"regions":32,"samples":10}`
		ask(t, srv, a)
		e, ok := srv.specs.get([]byte(a))
		if !ok {
			t.Fatal("spec a not memoized")
		}
		first := srv.Pool().tenants[e.key]
		ask(t, srv, `{"env":"med-cube","procs":4,"regions":32,"samples":10,"seed":2}`)
		ask(t, srv, `{"env":"med-cube","procs":4,"regions":32,"samples":10,"seed":3}`)
		if srv.Pool().tenants[e.key] != nil || first.ctx.Err() == nil {
			t.Fatal("tenant a not evicted")
		}
		ask(t, srv, a) // a memo hit
		again := srv.Pool().tenants[e.key]
		if again == nil || again == first || again.ctx.Err() != nil {
			t.Fatal("a memo hit for an evicted tenant did not rebuild it")
		}
	})
}

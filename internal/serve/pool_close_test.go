package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPoolCloseRace hammers tenant creation, queries and LRU eviction
// concurrently with Close, by calling the handler directly so that every
// goroutine alive is the test's or the pool's. Run with -race: an
// earlier pool called wg.Add from tenant start-up while Close could
// already be in wg.Wait (a WaitGroup misuse that panics or races), and
// the pool could create tenants after Close, leaking goroutines on a dead
// context. Every request must come back as an answer or a clean refusal
// — 503 from a closed pool or a canceled tenant, 429 from a full gate —
// tenant must refuse a closed pool with ErrPoolClosed, and no goroutine
// may outlive Close.
func TestPoolCloseRace(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 8; iter++ {
		cfg := testConfig()
		cfg.MaxTenants = 2 // small cap: creations force evictions
		srv := New(cfg)

		bodies := make([][]byte, 6)
		for i := range bodies {
			b, err := json.Marshal(QueryRequest{
				Spec:  Spec{Env: "small-cube", Seed: uint64(i + 1), Procs: 2, Regions: 8, Samples: 4},
				Start: []float64{0.1, 0.1, 0.1},
				Goal:  []float64{0.9, 0.9, 0.9},
				K:     4,
			})
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = b
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		results := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					rec := httptest.NewRecorder()
					req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(bodies[(g+i)%len(bodies)]))
					srv.Handler().ServeHTTP(rec, req)
					switch rec.Code {
					case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
					default:
						results <- fmt.Errorf("worker %d request %d: status %d: %s", g, i, rec.Code, rec.Body)
						return
					}
				}
			}(g)
		}
		close(start)
		// Close mid-hammer, concurrently with creations and evictions.
		time.Sleep(time.Duration(iter) * 3 * time.Millisecond)
		srv.Close()
		wg.Wait()
		close(results)
		for err := range results {
			t.Errorf("iter %d %v", iter, err)
		}
		if t.Failed() {
			return
		}
		// Post-close semantics: no new tenants, ever.
		sp, err := Spec{Env: "small-cube"}.Canonical(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Pool().tenant(sp.Key(), sp); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("tenant after Close returned %v, want ErrPoolClosed", err)
		}
	}
	// Close waited for every grow loop and the handlers have returned:
	// nothing the pools started is still running. (The runtime may take a
	// moment to retire exited goroutines.)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutine(s) outlived Close:\n%s", after-before, buf[:runtime.Stack(buf, true)])
	}
}

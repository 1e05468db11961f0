// Command mploadgen drives a running mpserved with a reproducible query
// load — closed-loop (fixed concurrency) or open-loop (fixed arrival
// rate, each request timed from the instant it was due) — and writes the
// latency percentiles in the BENCH_serve.json schema, optionally failing
// against a checked-in baseline.
//
// Usage:
//
//	mpserved -addr :8931 &
//	mploadgen -url http://localhost:8931 -n 1000000 -workers 64 \
//	          -env med-cube -hot 0.5 -out BENCH_serve.json
//
// Every query's endpoints are sampled collision-free client-side, so an
// unsolved query means the roadmap genuinely lacks coverage, not that
// the generator asked for a config inside an obstacle. A -hot fraction
// of queries draws from a small fixed set of (start, goal) pairs to
// exercise the server's path cache; the rest draw from a large cold
// pool. The load is a pure function of -seed, independent of worker
// scheduling.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"parmp"
	"parmp/internal/rng"
	"parmp/internal/serve"
	"parmp/internal/servebench"
)

type pair struct {
	start, goal []float64
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mploadgen: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	url := flag.String("url", "http://localhost:8931", "mpserved base URL")
	n := flag.Int("n", 1_000_000, "total queries to issue")
	workers := flag.Int("workers", 64, "concurrent client connections")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in queries/sec (0 = closed loop: workers fire back-to-back)")
	envName := flag.String("env", "med-cube", "benchmark environment to query")
	tenants := flag.Int("tenants", 1, "tenant mix: spread queries over this many tenants (distinct seeds, same environment)")
	procs := flag.Int("procs", 8, "spec: virtual processors per tenant")
	regions := flag.Int("regions", 0, "spec: regions per tenant (0 = engine default)")
	samples := flag.Int("samples", 16, "spec: sampling attempts per region")
	rounds := flag.Int("rounds", 0, "spec: growth rounds per tenant (0 = server default)")
	portfolio := flag.Int("portfolio", 0, "spec: race this many derived-seed configurations per tenant (0 = single engine)")
	restarts := flag.String("restarts", "", "spec: portfolio restart schedule (luby, none; empty = server default)")
	hot := flag.Float64("hot", 0.5, "fraction of queries drawn from the hot pair set")
	hotPairs := flag.Int("hot-pairs", 64, "size of the hot (start, goal) set")
	coldPairs := flag.Int("cold-pairs", 4096, "size of the cold pair pool")
	k := flag.Int("k", 0, "attachment count per query (0 = server default)")
	seed := flag.Uint64("seed", 1, "random seed for the query load")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	warm := flag.Bool("wait-grown", true, "issue one warm-up query per tenant and wait for background growth before the measured run")
	warmTimeout := flag.Duration("warm-timeout", 5*time.Minute, "how long to wait for tenants to finish growing")
	out := flag.String("out", "BENCH_serve.json", "where to write the result (\"-\" = stdout)")
	baseline := flag.String("baseline", "", "baseline BENCH_serve.json to gate p99 against")
	maxRegress := flag.Float64("max-regress", 0.5, "fail when client p99 exceeds the baseline's by more than this fraction (negative = off)")
	maxErrorRate := flag.Float64("max-error-rate", 0.001, "fail when the non-2xx rate exceeds this (negative = off)")
	mutateEvery := flag.Int("mutate-every", 0, "roughly every N queries, drop an obstacle onto the hot path via /v1/env/mutate, probe for stale cached answers, then restore the world; the run fails on any stale path (0 = off)")
	flag.Parse()

	if *n <= 0 || *workers <= 0 || *tenants <= 0 || *hotPairs <= 0 || *coldPairs <= 0 {
		fatalf("-n, -workers, -tenants, -hot-pairs and -cold-pairs must be positive")
	}
	e := parmp.EnvironmentByName(*envName)
	if e == nil {
		fatalf("unknown environment %q", *envName)
	}
	space := parmp.NewPointSpace(e)

	// The query load: hot pairs repeat (cache fodder), cold pairs spread
	// over the environment. All endpoints are collision-free.
	sample := func(r *rng.Stream) []float64 {
		q, ok := space.SampleFreeIn(space.Bounds, r, 256, nil)
		if !ok {
			fatalf("could not sample a free configuration in %s", *envName)
		}
		return q
	}
	r := rng.Derive(*seed, 0x10adbeef)
	hotSet := make([]pair, *hotPairs)
	for i := range hotSet {
		hotSet[i] = pair{sample(r), sample(r)}
	}
	coldSet := make([]pair, *coldPairs)
	for i := range coldSet {
		coldSet[i] = pair{sample(r), sample(r)}
	}
	specs := make([]serve.Spec, *tenants)
	for t := range specs {
		specs[t] = serve.Spec{
			Env:     *envName,
			Procs:   *procs,
			Regions: *regions,
			Samples: *samples,
			Seed:    *seed + uint64(t),
			Rounds:  *rounds,
		}
		if *portfolio > 0 {
			// A portfolio tenant needs its race query: the corner-to-corner
			// pair the benchmark environments are built around.
			specs[t].Portfolio = *portfolio
			specs[t].Restarts = *restarts
			specs[t].Root = cornerConfig(space, 0.05)
			specs[t].Goal = cornerConfig(space, 0.95)
		}
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *workers,
			MaxIdleConnsPerHost: 2 * *workers,
		},
	}
	waitHealthy(client, *url)
	if *warm {
		warmTenants(client, *url, specs, hotSet[0], *warmTimeout)
	}

	// Measured run. Per-query state is preallocated so workers only
	// write disjoint indices; the only shared mutable state is the
	// dispatch counter and the error tallies.
	latUS := make([]float64, *n)
	serveUS := make([]float64, *n)
	status := make([]int16, *n)
	cacheHit := make([]bool, *n)
	var solved, errors, rejected atomic.Int64
	var next atomic.Int64
	interval := time.Duration(0)
	var lateUS []float64 // open loop: how long after its due time each request left
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
		lateUS = make([]float64, *n)
	}

	fmt.Fprintf(os.Stderr, "mploadgen: %d queries, %d workers, %d tenant(s), hot=%.0f%%",
		*n, *workers, *tenants, 100**hot)
	if interval > 0 {
		fmt.Fprintf(os.Stderr, ", open loop at %.0f qps", *rate)
	}
	fmt.Fprintln(os.Stderr)

	t0 := time.Now()
	var wg sync.WaitGroup
	var mutations, stalePaths atomic.Int64
	var mutWG sync.WaitGroup
	if *mutateEvery > 0 {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			runMutator(client, *url, specs[0], hotSet[0], len(e.Obstacles), space,
				*mutateEvery, int64(*n), &next, &mutations, &stalePaths)
		}()
	}
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				// Pair choice is a pure function of (seed, i): the load
				// replays identically whatever the worker count.
				qr := rng.Derive(*seed, uint64(i))
				var p pair
				if qr.Float64() < *hot {
					p = hotSet[qr.Intn(len(hotSet))]
				} else {
					p = coldSet[qr.Intn(len(coldSet))]
				}
				req := serve.QueryRequest{Spec: specs[i%len(specs)], Start: p.start, Goal: p.goal, K: *k}
				body, err := json.Marshal(req)
				if err != nil {
					fatalf("marshal: %v", err)
				}
				q0 := time.Now()
				if interval > 0 {
					// An open loop times a request from the instant it was due:
					// when every connection is busy it leaves late, and that wait
					// is latency its caller saw (no coordinated omission).
					q0 = t0.Add(time.Duration(i) * interval)
					time.Sleep(time.Until(q0))
					lateUS[i] = float64(time.Since(q0).Nanoseconds()) / 1e3
				}
				resp, err := client.Post(*url+"/v1/query", "application/json", bytes.NewReader(body))
				latUS[i] = float64(time.Since(q0).Nanoseconds()) / 1e3
				if err != nil {
					status[i] = -1
					errors.Add(1)
					continue
				}
				var ans serve.QueryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ans)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				status[i] = int16(resp.StatusCode)
				switch {
				case resp.StatusCode == http.StatusOK && decErr == nil:
					serveUS[i] = ans.ServeUS
					cacheHit[i] = ans.CacheHit
					if ans.OK {
						solved.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
					errors.Add(1)
				default:
					errors.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	mutWG.Wait()

	// Summarize: client latency over every issued query, server-side
	// percentiles over the 200s, cache-hit percentiles over the hits.
	var serveOK, hitUS []float64
	var hits int64
	for i := 0; i < *n; i++ {
		if status[i] != http.StatusOK {
			continue
		}
		serveOK = append(serveOK, serveUS[i])
		if cacheHit[i] {
			hits++
			hitUS = append(hitUS, serveUS[i])
		}
	}
	res := servebench.Result{
		Source:      "mploadgen",
		Env:         *envName,
		Mode:        "closed",
		Workers:     *workers,
		Queries:     int64(*n),
		Solved:      solved.Load(),
		Errors:      errors.Load(),
		Rejected:    rejected.Load(),
		DurationSec: elapsed.Seconds(),
		Throughput:  float64(*n) / elapsed.Seconds(),
		Latency:     servebench.Compute(latUS),
	}
	res.ErrorRate = float64(res.Errors) / float64(res.Queries)
	if interval > 0 {
		res.Mode, res.RateQPS = "open", *rate
		late := servebench.Compute(lateUS)
		res.Late = &late
	}
	if len(serveOK) > 0 {
		p := servebench.Compute(serveOK)
		res.Serve = &p
		res.CacheHitRate = float64(hits) / float64(len(serveOK))
	}
	if len(hitUS) > 0 {
		p := servebench.Compute(hitUS)
		res.CacheHit = &p
	}
	res.Mutations = mutations.Load()
	res.StalePaths = stalePaths.Load()

	fmt.Fprintf(os.Stderr, "mploadgen: %d queries in %v (%.0f qps), %d solved, %d errors (%d rejected)\n",
		res.Queries, elapsed.Round(time.Millisecond), res.Throughput, res.Solved, res.Errors, res.Rejected)
	fmt.Fprintf(os.Stderr, "  client latency: p50=%.0fµs p99=%.0fµs p999=%.0fµs max=%.0fµs\n",
		res.Latency.P50, res.Latency.P99, res.Latency.P999, res.Latency.Max)
	if res.Late != nil {
		fmt.Fprintf(os.Stderr, "  sent late     : p99=%.0fµs max=%.0fµs after the due time (counted in client latency)\n", res.Late.P99, res.Late.Max)
	}
	if res.Serve != nil {
		fmt.Fprintf(os.Stderr, "  server  time  : p50=%.0fµs p99=%.0fµs p999=%.0fµs cache-hit-rate=%.1f%%\n",
			res.Serve.P50, res.Serve.P99, res.Serve.P999, 100*res.CacheHitRate)
	}
	if res.CacheHit != nil {
		fmt.Fprintf(os.Stderr, "  cache hits    : p50=%.0fµs p99=%.0fµs\n", res.CacheHit.P50, res.CacheHit.P99)
	}
	if *mutateEvery > 0 {
		fmt.Fprintf(os.Stderr, "  mutations     : %d applied, %d stale paths\n", res.Mutations, res.StalePaths)
	}

	if err := servebench.WriteFile(*out, res); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	gate := servebench.Gate{MaxErrorRate: *maxErrorRate, MaxRegress: *maxRegress}
	var base *servebench.Result
	if *baseline != "" {
		b, err := servebench.Load(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		base = &b
	}
	if err := gate.Check(res, base); err != nil {
		fmt.Fprintln(os.Stderr, "mploadgen:", err)
		os.Exit(1)
	}
	if res.StalePaths > 0 {
		fmt.Fprintf(os.Stderr, "mploadgen: %d stale path(s) served after a committed mutation — cache invalidation is broken\n", res.StalePaths)
		os.Exit(1)
	}
}

// runMutator periodically walls off the hot pair's current path with a
// sphere through POST /v1/env/mutate, probes the pair for a stale cached
// answer (a returned path through the sphere can only be pre-mutation),
// and restores the world by removing the sphere. The cadence tracks the
// dispatch counter: one mutation cycle per `every` dispatched queries.
func runMutator(client *http.Client, url string, spec serve.Spec, probe pair, removeIdx int,
	space *parmp.Space, every int, n int64, next *atomic.Int64, mutations, stale *atomic.Int64) {

	// Sphere radius: 4% of the shortest workspace span — big enough to
	// catch the path's midpoint, small enough to leave detours open.
	radius := space.Bounds.Hi[0] - space.Bounds.Lo[0]
	for d := 1; d < space.Dim(); d++ {
		if span := space.Bounds.Hi[d] - space.Bounds.Lo[d]; span < radius {
			radius = span
		}
	}
	radius *= 0.04

	last := int64(0)
	for {
		cur := next.Load()
		if cur >= n {
			return
		}
		if cur-last < int64(every) {
			time.Sleep(time.Millisecond)
			continue
		}
		last = cur
		// Find where the hot path currently runs; skip the cycle when the
		// pair is unsolved (nothing cacheable to invalidate).
		path, ok := queryPath(client, url, spec, probe)
		if !ok || len(path) < 3 {
			continue
		}
		center := path[len(path)/2]
		add := serve.MutationSpec{Op: "add", Sphere: &serve.SphereSpec{Center: center, Radius: radius}}
		if !postMutate(client, url, spec, add) {
			continue // e.g. midpoint out of bounds after clamping; try next cycle
		}
		mutations.Add(1)
		// This probe was issued strictly after the mutation committed: a
		// returned path through the sphere can only be a stale cache entry.
		if p2, ok := queryPath(client, url, spec, probe); ok && pathIntersectsSphere(p2, center, radius) {
			stale.Add(1)
		}
		if postMutate(client, url, spec, serve.MutationSpec{Op: "remove", Index: removeIdx}) {
			mutations.Add(1)
		} else {
			fatalf("mutator could not restore the world (remove index %d failed)", removeIdx)
		}
	}
}

// queryPath answers one query, returning the path and whether it solved.
func queryPath(client *http.Client, url string, spec serve.Spec, p pair) ([][]float64, bool) {
	body, _ := json.Marshal(serve.QueryRequest{Spec: spec, Start: p.start, Goal: p.goal})
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	var ans serve.QueryResponse
	decErr := json.NewDecoder(resp.Body).Decode(&ans)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil {
		return nil, false
	}
	return ans.Path, ans.OK
}

// postMutate issues one mutation, reporting whether it committed.
func postMutate(client *http.Client, url string, spec serve.Spec, m serve.MutationSpec) bool {
	body, _ := json.Marshal(serve.MutateRequest{Spec: spec, Mutations: []serve.MutationSpec{m}})
	resp, err := client.Post(url+"/v1/env/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pathIntersectsSphere reports whether any path segment passes through
// the sphere, by dense sampling.
func pathIntersectsSphere(path [][]float64, center []float64, radius float64) bool {
	const steps = 64
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		for s := 0; s <= steps; s++ {
			t := float64(s) / steps
			var d2 float64
			for d := range center {
				x := a[d] + t*(b[d]-a[d]) - center[d]
				d2 += x * x
			}
			if d2 < radius*radius {
				return true
			}
		}
	}
	return false
}

// cornerConfig returns the configuration at fraction f of every bound's
// span — the benchmark corner query endpoints.
func cornerConfig(space *parmp.Space, f float64) []float64 {
	q := make([]float64, space.Dim())
	for d := range q {
		lo, hi := space.Bounds.Lo[d], space.Bounds.Hi[d]
		q[d] = lo + f*(hi-lo)
	}
	return q
}

// waitHealthy polls /healthz until the server answers.
func waitHealthy(client *http.Client, url string) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatalf("server at %s never became healthy: %v", url, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// warmTenants issues one query per tenant (building each engine), then
// polls /v1/stats until every tenant reports grow_done, so the measured
// run sees steady-state roadmaps.
func warmTenants(client *http.Client, url string, specs []serve.Spec, p pair, timeout time.Duration) {
	for _, sp := range specs {
		body, _ := json.Marshal(serve.QueryRequest{Spec: sp, Start: p.start, Goal: p.goal})
		resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			fatalf("warm-up query: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			fatalf("warm-up query: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(url + "/v1/stats")
		if err != nil {
			fatalf("stats: %v", err)
		}
		var st serve.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			fatalf("stats: %v", err)
		}
		done := len(st.Tenants) >= len(specs)
		for _, t := range st.Tenants {
			if !t.GrowDone {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			fatalf("tenants did not finish growing within %v", timeout)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

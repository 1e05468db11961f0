package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"parmp/internal/cspace"
	"parmp/internal/metrics"
	"parmp/internal/rng"
)

// scale fixes the repetition counts of every workload. Problem sizes
// (environments, robots, region and sample counts) never change with the
// scale; only how often the same kind of work repeats does.
type scale struct {
	Name          string
	SetupReps     int // set-ups per run; setup_s is the fastest
	GrowRounds    int // Grow rounds per grow-prm engine
	ChurnIters    int // (Grow, ApplyDelta) pairs per commit-churn engine
	RaceCap       int // rounds before a solve-tree race is censored
	RacesPerCycle int
	Queries       int // single queries per query-cold cycle
	Batches       int // QueryBatch calls (of batchSize queries) per query-cold cycle
	HotRequests   int // POST /v1/query per serve-hot cycle
	KernelIters   int // calls per kernel timing loop in the traced run
	PubCycles     int // public cycles of a traced run before the twin's
}

var scales = map[string]scale{
	"full": {
		Name: "full", SetupReps: 7,
		GrowRounds: 5, ChurnIters: 16,
		RaceCap: 4, RacesPerCycle: 144,
		Queries: 160, Batches: 4,
		HotRequests: 10000, KernelIters: 20000, PubCycles: 3,
	},
	"smoke": {
		Name: "smoke", SetupReps: 1,
		GrowRounds: 2, ChurnIters: 4,
		RaceCap: 3, RacesPerCycle: 2,
		Queries: 60, Batches: 2,
		HotRequests: 400, KernelIters: 500, PubCycles: 1,
	},
}

// A workload is one set of generated inputs plus the closed loop that
// drives the program under test with them.
//
// The measured section is a sequence of cycles. A cycle is a fixed,
// deterministic amount of work derived from the seed — one engine grown
// for a fixed number of rounds, one pass over the query set — and every
// cycle of a run repeats it exactly: same inputs, same operations in the
// same order, same answers. A run that fits more cycles into its seconds
// therefore times the same operations more often instead of measuring
// something else, and it stops at a cycle boundary, never inside one.
type workload interface {
	// setup builds everything the measured section needs from the seed:
	// inputs, pre-grown roadmaps, warm caches. It is timed (setup_s) and
	// may be called again after close.
	setup(seed uint64) error
	// cycle runs the cycle once, recording one latency per operation, in
	// an order that is the same every time.
	cycle(rec *recorder)
	// traced re-runs the cycle through the layers' public functions with a
	// span around each call and adds the per-layer metrics to m. pub is
	// the recorder of the untraced cycles the runner has just measured.
	traced(tr *tracer, pub *recorder, m map[string]float64)
	// close releases what setup built (servers, goroutines).
	close()
}

var workloadCtors = map[string]func(sc scale) workload{
	"grow-prm":     func(sc scale) workload { return newGrowWorkload(sc, false) },
	"commit-churn": func(sc scale) workload { return newGrowWorkload(sc, true) },
	"solve-tree":   func(sc scale) workload { return newTreeWorkload(sc) },
	"query-cold":   func(sc scale) workload { return newQueryWorkload(sc) },
	"serve-hot":    func(sc scale) workload { return newServeWorkload(sc) },
}

// recorder collects what one cycle produced.
type recorder struct {
	lat []float64 // caller-observed latency per operation, ms
	// other is timed work of the program under test that is not an
	// operation of its own: constructing an engine, one QueryBatch call.
	// It counts in the throughput, not in the latency percentiles.
	other []float64
	// parts are timings of pieces of operations, kept for the layer
	// metrics: Engine.Grow alone, ApplyDelta alone, a whole race.
	parts     map[string][]float64
	ops       int // completed operations (a batched query counts as one)
	attempted int
	failed    int
	notes     []string // first few failure descriptions
	// exact holds counts that must repeat bit-identically for a seed
	// (virtual makespan, node counts, solved races): from cycle to cycle,
	// from run to run, and between the untraced and the traced run.
	exact map[string]float64
}

func newRecorder() *recorder {
	return &recorder{exact: map[string]float64{}, parts: map[string][]float64{}}
}

func (r *recorder) part(name string, d time.Duration) {
	r.parts[name] = append(r.parts[name], ms(d))
}

// seconds is the time the program under test was busy in the cycle;
// the harness's own checks between operations are not in it.
func (r *recorder) seconds() float64 { return (metrics.Sum(r.lat) + metrics.Sum(r.other)) / 1e3 }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// fold merges a later cycle into cycle 0's recorder: its attempts and
// failures count, it must have done exactly what cycle 0 did — the same
// number of operations and the same exact counts — and every timed piece
// keeps the faster of its two readings.
func (r *recorder) fold(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
	if len(o.lat) != len(r.lat) || len(o.other) != len(r.other) || o.ops != r.ops {
		r.fail("a cycle did %d operations (%d+%d timed), cycle 0 did %d (%d+%d)", o.ops, len(o.lat), len(o.other), r.ops, len(r.lat), len(r.other))
	}
	for k, v := range r.exact {
		if o.exact[k] != v {
			r.fail("exact.%s: %v in cycle 0, %v in a later cycle", k, v, o.exact[k])
		}
	}
	keepFastest(r.lat, o.lat)
	keepFastest(r.other, o.other)
	for k, v := range r.parts {
		keepFastest(v, o.parts[k])
	}
}

// result is one workload run, traced or not.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Cycles    int                `json:"cycles"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Exact     map[string]float64 `json:"exact"`
	Notes     []string           `json:"notes,omitempty"`
}

// runUntraced measures the end-to-end metrics: whole cycles until the
// next one would not fit into the remaining seconds, and set-up several
// times among them. At least one cycle always runs.
//
// Every cycle times the same operations, so operation j has one latency
// per cycle, and the run keeps the fastest of them: the operation's time
// when nothing interrupted it. On a shared box other tenants take the
// processor, its sibling thread and its cache away for milliseconds at a
// time, at a rate that changes from minute to minute; that only ever
// adds time, so the minimum over repetitions is the estimate it disturbs
// least. The percentiles are then taken across the cycle's operations,
// and the throughput is the cycle's operation count over the sum of its
// fastest timed pieces.
//
// Set-up gets the same treatment: it is repeated SetupReps times, at even
// intervals through the measured section (everything is torn down and
// rebuilt from the seed, and the cycles go on with the identical new
// state), and setup_s is the fastest of them. Set-ups done back to back
// before the first cycle would all sit in the same second or two, which
// the host can slow down as a whole; their time is outside -seconds.
func runUntraced(name string, w workload, seed uint64, seconds float64, sc scale) result {
	res := result{Workload: name, Seed: seed, Metrics: map[string]float64{}}
	defer w.close()
	all := newRecorder() // cycle 0's timings and exact counts; every cycle's failures
	var setups []float64
	var measured, slowest time.Duration
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; ; i++ {
		if n := len(setups); n < sc.SetupReps && measured >= budget*time.Duration(n)/time.Duration(sc.SetupReps) {
			w.close()
			t0 := time.Now()
			if err := w.setup(seed); err != nil {
				res.Failed, res.Attempted = 1, 1
				res.Notes = []string{"setup: " + err.Error()}
				return res
			}
			setups = append(setups, time.Since(t0).Seconds())
			runtime.GC()
		}
		rec := all
		if i > 0 {
			rec = newRecorder()
		}
		t0 := time.Now()
		w.cycle(rec)
		d := time.Since(t0)
		measured += d
		slowest = max(slowest, d)
		res.Cycles++
		if i == 0 {
			// The workload still references what the cycle built (engine,
			// snapshot), so this is the live heap of one unit of work.
			res.Metrics["heap_mb"] = heapMB()
		} else {
			all.fold(rec)
		}
		if all.failed > 0 || measured+slowest > budget {
			break
		}
	}

	res.Metrics["setup_s"] = slices.Min(setups)
	res.Metrics["op_p50_ms"] = quantile(all.lat, 0.50)
	res.Metrics["op_p90_ms"] = quantile(all.lat, 0.90)
	res.Metrics["ops_per_s"] = float64(all.ops) / all.seconds()
	res.finish(all)
	return res
}

// keepFastest lowers best[j] to got[j] wherever the repetition was
// faster.
func keepFastest(best, got []float64) {
	for j := range min(len(best), len(got)) {
		best[j] = min(best[j], got[j])
	}
}

// runTraced produces the per-layer metrics: the cycle through the public
// API exactly as the untraced run does it (PubCycles times, the fastest
// reading of every piece kept), then once through the layers with spans,
// and the comparison of the two.
func runTraced(name string, w workload, seed uint64, sc scale, tracePath string) result {
	res := result{Workload: name, Seed: seed, Traced: true, Metrics: map[string]float64{}}
	if err := w.setup(seed); err != nil {
		res.Failed, res.Attempted = 1, 1
		res.Notes = []string{"setup: " + err.Error()}
		return res
	}
	defer w.close()
	runtime.GC()

	pub := newRecorder()
	w.cycle(pub)
	for i := 1; i < sc.PubCycles && pub.failed == 0; i++ {
		rec := newRecorder()
		w.cycle(rec)
		pub.fold(rec)
	}

	tr := newTracer()
	w.traced(tr, pub, res.Metrics)
	if e := tr.maxPartsError(); e > 0.05 {
		pub.fail("child spans overrun their parent by %.1f%%", 100*e)
	}
	if tracePath != "" {
		if err := tr.write(tracePath, name, seed, res.Metrics); err != nil {
			pub.fail("trace file: %v", err)
		}
	}
	res.Cycles = 1
	res.finish(pub)
	return res
}

func (res *result) finish(rec *recorder) {
	res.Samples = len(rec.lat)
	res.Attempted = rec.attempted
	res.Failed = rec.failed
	res.Notes = rec.notes
	res.Exact = rec.exact
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Notes = append(res.Notes, "no operation was attempted")
	}
	res.Correct = res.Failed == 0
}

// Shared helpers.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// hostSpeedup is the single-threaded baseline of the same problem: run
// does a fixed piece of the cycle at HostWorkers 1 and again at one
// worker per core, with every core enabled for both (the benchmark
// itself keeps GOMAXPROCS at 1), and the ratio of the two busy times is
// exec.speedup.
func hostSpeedup(pub *recorder, m map[string]float64, run func(hostWorkers int, rec *recorder)) {
	cores := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
	var t [2]float64
	for i, hw := range []int{1, cores} {
		rec := newRecorder()
		run(hw, rec)
		if rec.failed > 0 {
			pub.fail("speedup run: %v", rec.notes)
			return
		}
		t[i] = rec.seconds()
	}
	m["exec.speedup"] = t[0] / t[1]
	m["exec.scaling_eff"] = t[0] / t[1] / float64(cores)
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// Input derivation: every engine seed, query pair and request schedule
// comes from the run's seed through rng.Derive, salted per purpose so the
// streams are independent.
const (
	saltEngine   = 0xe1
	saltWarm     = 0xe2
	saltPairs    = 0xe3
	saltSchedule = 0xe4
	saltKernel   = 0xe5
)

func derivedSeed(seed, salt uint64, i int) uint64 {
	return rng.Derive(rng.Derive(seed, salt).Uint64(), uint64(i)).Uint64()
}

// denseSpace is the oracle's view of a space: same robot and metric,
// local plans checked at a quarter of the planner's resolution.
func denseSpace(s *cspace.Space) *cspace.Space {
	d := *s
	d.Resolution = s.Resolution / 4
	return &d
}

// checkPath is the path oracle: the path must start and end at the
// requested configurations and every hop must be collision-free at dense
// resolution in the given (epoch-correct) space.
func checkPath(dense *cspace.Space, path []cspace.Config, start, goal cspace.Config) error {
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	if !path[0].Equal(start, 0) {
		return fmt.Errorf("path starts at %v, requested %v", path[0], start)
	}
	if !path[len(path)-1].Equal(goal, 0) {
		return fmt.Errorf("path ends at %v, requested %v", path[len(path)-1], goal)
	}
	if !cspace.PathValid(dense, path, nil) {
		return fmt.Errorf("path of %d waypoints collides at dense resolution", len(path))
	}
	return nil
}

// timePer runs fn n times and returns the mean time per call.
func timePer(n int, fn func(i int)) time.Duration {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

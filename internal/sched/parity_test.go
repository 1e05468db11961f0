// Parity between the two sched.Runtime implementations: the virtual-time
// simulator (internal/dist) and the real goroutine executor
// (internal/exec) must agree on the scheduling contract — every task
// executes exactly once, counts balance, the report covers all IDs —
// when fed the same workload, policy and seed. Run under -race this also
// exercises the executor's concurrent accounting.
package sched_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"parmp/internal/dist"
	"parmp/internal/exec"
	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// parityWorkload builds an imbalanced task set (all work on worker 0) and
// a per-task execution counter.
func parityWorkload(workers, tasks int) ([][]work.Task, []int64) {
	execCount := make([]int64, tasks)
	queues := make([][]work.Task, workers)
	for i := 0; i < tasks; i++ {
		i := i
		queues[0] = append(queues[0], work.Task{
			ID:      i,
			Payload: i % 3,
			Run: func() float64 {
				atomic.AddInt64(&execCount[i], 1)
				return float64(1 + i%5)
			},
		})
	}
	return queues, execCount
}

func checkParityReport(t *testing.T, name string, rep sched.Report, execCount []int64, workers int) {
	t.Helper()
	tasks := len(execCount)
	for i, c := range execCount {
		if c != 1 {
			t.Errorf("%s: task %d ran %d times, want 1", name, i, c)
		}
	}
	if rep.TotalTasks != tasks {
		t.Errorf("%s: TotalTasks = %d, want %d", name, rep.TotalTasks, tasks)
	}
	if len(rep.Workers) != workers {
		t.Fatalf("%s: %d worker stats, want %d", name, len(rep.Workers), workers)
	}
	local, stolen, lost := 0, 0, 0
	for w, ws := range rep.Workers {
		if ws.TasksLocal < 0 || ws.TasksStolen < 0 || ws.TasksLost < 0 {
			t.Errorf("%s: worker %d has negative counts: %+v", name, w, ws)
		}
		if ws.StealsIssued < ws.StealsGranted+ws.StealsDenied {
			t.Errorf("%s: worker %d issued %d < granted %d + denied %d",
				name, w, ws.StealsIssued, ws.StealsGranted, ws.StealsDenied)
		}
		local += ws.TasksLocal
		stolen += ws.TasksStolen
		lost += ws.TasksLost
	}
	if local+stolen != tasks {
		t.Errorf("%s: local %d + stolen %d != total %d", name, local, stolen, tasks)
	}
	// A queued task can be re-stolen before running, so transfers (lost)
	// may exceed stolen executions, never the reverse.
	if lost < stolen {
		t.Errorf("%s: tasks lost %d < tasks stolen %d", name, lost, stolen)
	}
	// One record per executed task, distinct IDs: every task recorded
	// exactly once, whatever the steal schedule did to placement.
	byID := recordsByID(t, name, rep)
	if len(rep.Tasks) != tasks {
		t.Fatalf("%s: Tasks has %d records, want %d", name, len(rep.Tasks), tasks)
	}
	for i := 0; i < tasks; i++ {
		r, ok := byID[i]
		if !ok {
			t.Errorf("%s: task %d has no record", name, i)
			continue
		}
		if r.Worker < 0 || r.Worker >= workers {
			t.Errorf("%s: task %d executed by out-of-range worker %d", name, i, r.Worker)
		}
		if r.Cost != float64(1+i%5) {
			t.Errorf("%s: task %d cost %v, want %v", name, i, r.Cost, float64(1+i%5))
		}
		// Per-task cost attribution (the online cost model's input): both
		// backends must record every executed task's occupancy time under
		// its ID, whatever the steal schedule did to placement.
		if r.Elapsed < 0 {
			t.Errorf("%s: task %d elapsed %v, want >= 0", name, i, r.Elapsed)
		}
	}
}

// recordsByID indexes a report's task records by task ID, failing on a
// task recorded twice.
func recordsByID(t *testing.T, name string, rep sched.Report) map[int]sched.TaskResult {
	t.Helper()
	byID := make(map[int]sched.TaskResult, len(rep.Tasks))
	for _, r := range rep.Tasks {
		if _, dup := byID[r.ID]; dup {
			t.Errorf("%s: task %d recorded twice", name, r.ID)
		}
		byID[r.ID] = r
	}
	return byID
}

func TestRuntimeParity(t *testing.T) {
	const workers, tasks = 4, 24
	runtimes := []struct {
		name string
		rt   sched.Runtime
	}{
		{"dist", dist.Runtime},
		{"exec", sched.RuntimeFunc(exec.Run)},
	}
	policies := []struct {
		name   string
		policy steal.Policy
	}{
		{"none", nil},
		{"rand2", steal.RandK{K: 2}},
		{"hybrid", steal.Hybrid{K: 2}},
	}
	for _, rt := range runtimes {
		for _, pol := range policies {
			t.Run(rt.name+"/"+pol.name, func(t *testing.T) {
				queues, execCount := parityWorkload(workers, tasks)
				cfg := sched.Config{
					Workers:    workers,
					Profile:    work.Hopper(),
					Policy:     pol.policy,
					StealChunk: 0.25,
					Seed:       42,
				}
				rep := rt.rt.Run(cfg, queues)
				checkParityReport(t, rt.name+"/"+pol.name, rep, execCount, workers)
			})
		}
	}
}

// TestPerTaskCostParity pins the backend-specific halves of the Elapsed
// contract: the simulator's Elapsed is bit-identical to Cost (a task
// occupies exactly its virtual cost), and in both backends each worker's
// Busy equals the sum of the Elapsed of the tasks it executed (measured
// wall time for the executor), so per-region cost attribution and
// per-worker utilization are two views of the same measurements.
func TestPerTaskCostParity(t *testing.T) {
	const workers, tasks = 4, 24
	for _, rt := range []struct {
		name string
		rt   sched.Runtime
	}{{"dist", dist.Runtime}, {"exec", sched.RuntimeFunc(exec.Run)}} {
		t.Run(rt.name, func(t *testing.T) {
			queues, execCount := parityWorkload(workers, tasks)
			rep := rt.rt.Run(sched.Config{
				Workers:    workers,
				Profile:    work.Hopper(),
				Policy:     steal.RandK{K: 2},
				StealChunk: 0.25,
				Seed:       42,
			}, queues)
			checkParityReport(t, rt.name, rep, execCount, workers)
			busySum := make([]float64, workers)
			for _, r := range rep.Tasks {
				if rt.name == "dist" && r.Elapsed != r.Cost {
					t.Errorf("dist: task %d elapsed %v != cost %v", r.ID, r.Elapsed, r.Cost)
				}
				busySum[r.Worker] += r.Elapsed
			}
			for w := range rep.Workers {
				got, want := rep.Workers[w].Busy, busySum[w]
				// Tolerance covers float summation order (the executor sums
				// durations as integers, the check sums float seconds).
				tol := 1e-9 * (1 + want)
				if diff := got - want; diff > tol || diff < -tol {
					t.Errorf("%s: worker %d busy %v != sum of elapsed %v", rt.name, w, got, want)
				}
			}
		})
	}
}

// noVictims is a steal policy with nobody to ask — the mesh-corner
// degenerate case. Thieves must retire (with a trace event) instead of
// spinning, identically in both backends.
type noVictims struct{}

func (noVictims) Name() string                                           { return "no-victims" }
func (noVictims) Victims(thief, procs, attempt int, _ *rng.Stream) []int { return nil }

// kindsByProc groups a trace stream's event kinds per worker, in arrival
// order. The executor's stream is interleaved across workers but ordered
// within one, so per-worker sequences compare deterministically.
func kindsByProc(events []sched.TraceEvent, workers int) [][]string {
	out := make([][]string, workers)
	for _, e := range events {
		out[e.Proc] = append(out[e.Proc], e.Kind)
	}
	return out
}

// TestTraceKindSequenceParity fixes a workload whose schedule is
// deterministic in both backends (every worker drains its own queue; the
// policy has no victims to offer) and asserts the two runtimes emit
// identical per-worker trace-event kind sequences, including the final
// "retire" on every worker. Regression for the simulator retiring
// silently when the policy returned no victims or remaining hit zero,
// which made simulator and executor trace streams disagree.
func TestTraceKindSequenceParity(t *testing.T) {
	const workers = 3
	build := func() [][]work.Task {
		queues := make([][]work.Task, workers)
		for w := 0; w < workers; w++ {
			for j := 0; j <= w; j++ { // 1, 2, 3 tasks
				id := w*10 + j
				queues[w] = append(queues[w], work.Task{
					ID:  id,
					Run: func() float64 { return 1 },
				})
			}
		}
		return queues
	}
	for _, tc := range []struct {
		name   string
		policy steal.Policy
		want   func(w int) []string
	}{
		{
			// Stealing enabled but unservable: each worker execs its own
			// queue then emits exactly one retire.
			name:   "no-victims",
			policy: noVictims{},
			want: func(w int) []string {
				kinds := make([]string, 0, w+2)
				for j := 0; j <= w; j++ {
					kinds = append(kinds, "exec")
				}
				return append(kinds, "retire")
			},
		},
		{
			// Stealing disabled: no thief lifecycle, so no retire events.
			name:   "nil-policy",
			policy: nil,
			want: func(w int) []string {
				kinds := make([]string, 0, w+1)
				for j := 0; j <= w; j++ {
					kinds = append(kinds, "exec")
				}
				return kinds
			},
		},
	} {
		for _, rt := range []struct {
			name string
			rt   sched.Runtime
		}{{"dist", dist.Runtime}, {"exec", sched.RuntimeFunc(exec.Run)}} {
			t.Run(tc.name+"/"+rt.name, func(t *testing.T) {
				var mu sync.Mutex
				var events []sched.TraceEvent
				rt.rt.Run(sched.Config{
					Workers: workers,
					Profile: work.Hopper(),
					Policy:  tc.policy,
					Seed:    3,
					Trace: func(e sched.TraceEvent) {
						mu.Lock()
						events = append(events, e)
						mu.Unlock()
					},
				}, build())
				got := kindsByProc(events, workers)
				for w := 0; w < workers; w++ {
					want := tc.want(w)
					if len(got[w]) != len(want) {
						t.Fatalf("worker %d kinds = %v, want %v", w, got[w], want)
					}
					for i := range want {
						if got[w][i] != want[i] {
							t.Fatalf("worker %d kinds = %v, want %v", w, got[w], want)
						}
					}
				}
			})
		}
	}
}

// TestRetireOncePerWorker asserts the lifecycle invariant behind the
// trace parity: with stealing enabled on a multi-worker run, every worker
// emits exactly one "retire" event — no silent retirement path in either
// backend, regardless of policy or retry bound.
func TestRetireOncePerWorker(t *testing.T) {
	const workers, tasks = 4, 24
	for _, rt := range []struct {
		name string
		rt   sched.Runtime
	}{{"dist", dist.Runtime}, {"exec", sched.RuntimeFunc(exec.Run)}} {
		for _, tc := range []struct {
			name      string
			policy    steal.Policy
			maxRounds int
		}{
			{"rand2-unbounded", steal.RandK{K: 2}, 0},
			{"rand1-bounded", steal.RandK{K: 1}, 2},
			{"hybrid-bounded", steal.Hybrid{K: 2}, 3},
			{"no-victims", noVictims{}, 0},
		} {
			t.Run(rt.name+"/"+tc.name, func(t *testing.T) {
				queues, _ := parityWorkload(workers, tasks)
				var mu sync.Mutex
				retires := make(map[int]int)
				rt.rt.Run(sched.Config{
					Workers:   workers,
					Profile:   work.Hopper(),
					Policy:    tc.policy,
					MaxRounds: tc.maxRounds,
					Seed:      11,
					Trace: func(e sched.TraceEvent) {
						if e.Kind == "retire" {
							mu.Lock()
							retires[e.Proc]++
							mu.Unlock()
						}
					},
				}, queues)
				for w := 0; w < workers; w++ {
					if retires[w] != 1 {
						t.Errorf("worker %d emitted %d retire events, want exactly 1", w, retires[w])
					}
				}
			})
		}
	}
}

// TestRuntimeParityMismatchedQueues feeds both backends a queue count
// that differs from Workers. Regression: the simulator used to panic
// here while the executor silently re-sharded; both now redistribute
// round-robin through sched.Reshard and must agree on the assignment.
func TestRuntimeParityMismatchedQueues(t *testing.T) {
	const workers, tasks = 3, 10
	for _, shards := range []int{1, 2, 5} {
		for _, rt := range []struct {
			name string
			rt   sched.Runtime
		}{{"dist", dist.Runtime}, {"exec", sched.RuntimeFunc(exec.Run)}} {
			t.Run(fmt.Sprintf("%s/shards-%d", rt.name, shards), func(t *testing.T) {
				execCount := make([]int64, tasks)
				queues := make([][]work.Task, shards)
				for i := 0; i < tasks; i++ {
					i := i
					queues[i%shards] = append(queues[i%shards], work.Task{
						ID: i,
						Run: func() float64 {
							atomic.AddInt64(&execCount[i], 1)
							return 1
						},
					})
				}
				// No stealing, so each record's Worker IS the re-shard
				// assignment; it must match sched.Reshard's round-robin.
				rep := rt.rt.Run(sched.Config{Workers: workers, Profile: work.Hopper(), Seed: 5}, queues)
				if rep.TotalTasks != tasks {
					t.Fatalf("TotalTasks = %d, want %d", rep.TotalTasks, tasks)
				}
				for i, c := range execCount {
					if c != 1 {
						t.Errorf("task %d ran %d times, want 1", i, c)
					}
				}
				byID := recordsByID(t, rt.name, rep)
				for w, q := range sched.Reshard(queues, workers) {
					for _, task := range q {
						if r, ok := byID[task.ID]; !ok || r.Worker != w {
							t.Errorf("task %d executed by %d (recorded %v), want %d (shared round-robin re-shard)",
								task.ID, r.Worker, ok, w)
						}
					}
				}
			})
		}
	}
}

func TestRuntimeParityMaxRounds(t *testing.T) {
	// Bounded retries: with MaxRounds set, thieves eventually retire, but
	// both runtimes must still complete every task (owners drain their own
	// deques regardless).
	const workers, tasks = 4, 16
	for _, rt := range []struct {
		name string
		rt   sched.Runtime
	}{{"dist", dist.Runtime}, {"exec", sched.RuntimeFunc(exec.Run)}} {
		t.Run(rt.name, func(t *testing.T) {
			queues, execCount := parityWorkload(workers, tasks)
			rep := rt.rt.Run(sched.Config{
				Workers:   workers,
				Profile:   work.Hopper(),
				Policy:    steal.RandK{K: 1},
				MaxRounds: 2,
				Seed:      7,
			}, queues)
			checkParityReport(t, rt.name, rep, execCount, workers)
		})
	}
}

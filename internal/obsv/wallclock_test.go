package obsv

import (
	"math"
	"testing"
	"time"

	"parmp/internal/exec"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// sleepTasks builds n tasks of a fixed wall-clock duration, so the
// executor's measured per-task costs are known up to scheduler jitter.
func sleepTasks(n int, d time.Duration) []work.Task {
	ts := make([]work.Task, n)
	for i := 0; i < n; i++ {
		ts[i] = work.Task{
			ID: i,
			Run: func() float64 {
				time.Sleep(d)
				return 1
			},
		}
	}
	return ts
}

// TestWallClockCostMetricsBalanced: on an evenly spread load without a
// steal policy the executor's wall-clock report must satisfy the parity
// contract — each worker ran exactly its own six tasks, every task cost
// at least its sleep, per-worker Busy is the sum of its tasks' measured
// Elapsed — and Analyze's ratios must be the ones the records give. It
// asserts only what the code fixes: how balanced the sleeps come out is
// the host's scheduler jitter, not the executor's doing.
func TestWallClockCostMetricsBalanced(t *testing.T) {
	const perWorker, workers = 6, 4
	const delay = 2 * time.Millisecond
	all := sleepTasks(perWorker*workers, delay)
	queues := make([][]work.Task, workers)
	for w := 0; w < workers; w++ {
		queues[w] = all[w*perWorker : (w+1)*perWorker]
	}
	rep := exec.Run(sched.Config{Workers: workers, Seed: 7}, queues)

	if len(rep.Tasks) != perWorker*workers {
		t.Fatalf("%d task records, want %d", len(rep.Tasks), perWorker*workers)
	}
	elapsed := make([]float64, workers)
	ran := make([]int, workers)
	for _, r := range rep.Tasks {
		if r.Elapsed < delay.Seconds() {
			t.Fatalf("task %d elapsed %.6fs, below its %.6fs sleep", r.ID, r.Elapsed, delay.Seconds())
		}
		if r.Worker != r.ID/perWorker {
			t.Fatalf("task %d ran on worker %d, queued on %d", r.ID, r.Worker, r.ID/perWorker)
		}
		elapsed[r.Worker] += r.Elapsed
		ran[r.Worker]++
	}
	var total, maxBusy float64
	for w, ws := range rep.Workers {
		if ran[w] != perWorker {
			t.Fatalf("worker %d ran %d tasks, want %d", w, ran[w], perWorker)
		}
		if diff := math.Abs(ws.Busy - elapsed[w]); diff > 1e-9*(1+ws.Busy) {
			t.Fatalf("worker %d Busy %.9f != sum Elapsed %.9f", w, ws.Busy, elapsed[w])
		}
		total += elapsed[w]
		maxBusy = math.Max(maxBusy, elapsed[w])
	}

	m := Analyze(rep)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*(1+math.Abs(want)) }
	if want := maxBusy / (total / workers); !near(m.Imbalance, want) || m.Imbalance < 1 {
		t.Errorf("imbalance %.9f, records give max/mean %.9f", m.Imbalance, want)
	}
	if want := total / (workers * rep.Makespan); !near(m.Utilization, want) || m.Utilization > 1+1e-9 {
		t.Errorf("utilization %.9f, records give %.9f (must be <= 1)", m.Utilization, want)
	}
	if m.StealEfficiency != 1 || m.TasksMigrated != 0 {
		t.Errorf("no-steal run reported steals: eff %.2f migrated %d", m.StealEfficiency, m.TasksMigrated)
	}
}

// TestWallClockCostMetricsSkewed: all work on one worker. Without a
// steal policy Analyze must expose the imbalance; with stealing enabled
// tasks migrate and both imbalance and utilization improve.
func TestWallClockCostMetricsSkewed(t *testing.T) {
	const n, workers = 32, 4
	const delay = time.Millisecond
	mkQueues := func() [][]work.Task {
		qs := make([][]work.Task, workers)
		qs[0] = sleepTasks(n, delay)
		return qs
	}

	noSteal := Analyze(exec.Run(sched.Config{Workers: workers, Seed: 11}, mkQueues()))
	if noSteal.Imbalance < 2 {
		t.Errorf("fully skewed no-steal imbalance %.3f, want >= 2 (ideal %d)", noSteal.Imbalance, workers)
	}
	if noSteal.Utilization > 0.6 {
		t.Errorf("fully skewed no-steal utilization %.3f, want <= 0.6 (ideal %.2f)",
			noSteal.Utilization, 1.0/workers)
	}

	stealRep := exec.Run(sched.Config{
		Workers: workers, Seed: 11, Policy: steal.RandK{K: 3}, StealChunk: 0.25,
	}, mkQueues())
	withSteal := Analyze(stealRep)
	if withSteal.TasksMigrated == 0 {
		t.Fatal("stealing run migrated no tasks off the loaded worker")
	}
	if withSteal.Imbalance >= noSteal.Imbalance {
		t.Errorf("stealing should cut imbalance: %.3f vs %.3f", withSteal.Imbalance, noSteal.Imbalance)
	}
	if withSteal.Utilization <= noSteal.Utilization {
		t.Errorf("stealing should raise utilization: %.3f vs %.3f", withSteal.Utilization, noSteal.Utilization)
	}
	// Migrated tasks keep their cost attribution: every task still has
	// one record under its ID, and some ran off worker 0.
	if len(stealRep.Tasks) != n {
		t.Fatalf("stolen run lost cost attribution: %d records for %d tasks", len(stealRep.Tasks), n)
	}
	moved := 0
	seen := make([]bool, n)
	for _, r := range stealRep.Tasks {
		if r.ID < 0 || r.ID >= n || seen[r.ID] {
			t.Fatalf("task record %d out of range or repeated across a steal", r.ID)
		}
		seen[r.ID] = true
		if r.Worker != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no record names a worker other than the loaded one")
	}
}

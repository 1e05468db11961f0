package obsv

import (
	"math"
	"testing"
	"time"

	"parmp/internal/exec"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// sleepTasks builds n tasks of a fixed wall-clock duration, tagged with
// region ids, so the executor's measured per-task costs are known up to
// scheduler jitter.
func sleepTasks(n int, d time.Duration) []work.Task {
	ts := make([]work.Task, n)
	for i := 0; i < n; i++ {
		ts[i] = work.Task{
			ID:     i,
			Region: i,
			Run: func() (float64, int) {
				time.Sleep(d)
				return 1, 0
			},
		}
	}
	return ts
}

// TestWallClockCostMetricsBalanced: on a deterministic evenly-spread
// load the executor's wall-clock report must satisfy the parity
// contract (per-worker Busy == sum of its tasks' measured Elapsed, every
// task cost at least its sleep) and Analyze must read it as balanced and
// well utilized.
func TestWallClockCostMetricsBalanced(t *testing.T) {
	const perWorker, workers = 6, 4
	const delay = 2 * time.Millisecond
	all := sleepTasks(perWorker*workers, delay)
	queues := make([][]work.Task, workers)
	for w := 0; w < workers; w++ {
		queues[w] = all[w*perWorker : (w+1)*perWorker]
	}
	rep := exec.Run(exec.Config{Workers: workers, Seed: 7}, queues)

	if len(rep.Tasks) != perWorker*workers {
		t.Fatalf("%d task records, want %d", len(rep.Tasks), perWorker*workers)
	}
	// Busy must be exactly the sum of measured task times per worker.
	perWorkerElapsed := make([]float64, workers)
	for _, r := range rep.Tasks {
		if r.Elapsed < delay.Seconds() {
			t.Fatalf("task %d elapsed %.6fs, below its %.6fs sleep", r.ID, r.Elapsed, delay.Seconds())
		}
		if r.Region != r.ID {
			t.Fatalf("task %d tagged region %d", r.ID, r.Region)
		}
		perWorkerElapsed[r.Worker] += r.Elapsed
	}
	for w, ws := range rep.Workers {
		if diff := math.Abs(ws.Busy - perWorkerElapsed[w]); diff > 1e-9*(1+ws.Busy) {
			t.Fatalf("worker %d Busy %.9f != sum Elapsed %.9f", w, ws.Busy, perWorkerElapsed[w])
		}
	}

	m := Analyze(rep)
	// Each worker slept the same total, so imbalance stays near 1 even
	// with scheduler jitter, and most of the makespan is busy time.
	if m.Imbalance < 1 || m.Imbalance > 1.5 {
		t.Errorf("balanced load imbalance %.3f outside [1, 1.5]", m.Imbalance)
	}
	if m.Utilization < 0.5 || m.Utilization > 1+1e-9 {
		t.Errorf("balanced load utilization %.3f outside [0.5, 1]", m.Utilization)
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

	noSteal := Analyze(exec.Run(exec.Config{Workers: workers, Seed: 11}, mkQueues()))
	if noSteal.Imbalance < 2 {
		t.Errorf("fully skewed no-steal imbalance %.3f, want >= 2 (ideal %d)", noSteal.Imbalance, workers)
	}
	if noSteal.Utilization > 0.6 {
		t.Errorf("fully skewed no-steal utilization %.3f, want <= 0.6 (ideal %.2f)",
			noSteal.Utilization, 1.0/workers)
	}

	stealRep := exec.Run(exec.Config{
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
	// Migrated tasks keep their cost attribution: every task still has a
	// record with its original region tag, and some ran off worker 0.
	if len(stealRep.Tasks) != n {
		t.Fatalf("stolen run lost cost attribution: %d records for %d tasks", len(stealRep.Tasks), n)
	}
	moved := 0
	for _, r := range stealRep.Tasks {
		if r.Region != r.ID {
			t.Fatalf("task %d lost its region tag across a steal: %d", r.ID, r.Region)
		}
		if r.Worker != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no record names a worker other than the loaded one")
	}
}

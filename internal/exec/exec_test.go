package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// makeTasks builds n tasks that count their executions into ran.
func makeTasks(n int, ran *int64, delay time.Duration) []work.Task {
	ts := make([]work.Task, n)
	for i := 0; i < n; i++ {
		ts[i] = work.Task{
			ID: i,
			Run: func() float64 {
				if delay > 0 {
					time.Sleep(delay)
				}
				atomic.AddInt64(ran, 1)
				return 1
			},
		}
	}
	return ts
}

func TestAllTasksRunOnce(t *testing.T) {
	var ran int64
	tasks := makeTasks(100, &ran, 0)
	queues := [][]work.Task{tasks, nil, nil, nil}
	rep := Run(sched.Config{Workers: 4, Policy: steal.RandK{K: 3}, Seed: 1}, queues)
	if ran != 100 {
		t.Fatalf("ran %d tasks, want 100", ran)
	}
	seen := map[int]bool{}
	for _, r := range rep.Tasks {
		seen[r.ID] = true
	}
	if len(rep.Tasks) != 100 || len(seen) != 100 {
		t.Fatalf("%d records over %d distinct tasks, want 100 of each", len(rep.Tasks), len(seen))
	}
	total := 0
	for _, ws := range rep.Workers {
		total += ws.TasksLocal + ws.TasksStolen
	}
	if total != 100 {
		t.Fatalf("task counts sum to %d", total)
	}
}

func TestStealingSpreadsWork(t *testing.T) {
	var ran int64
	tasks := makeTasks(64, &ran, 200*time.Microsecond)
	queues := [][]work.Task{tasks, nil, nil, nil}
	rep := Run(sched.Config{Workers: 4, Policy: steal.Hybrid{K: 3}, Seed: 2}, queues)
	stolen := 0
	for _, ws := range rep.Workers {
		stolen += ws.TasksStolen
	}
	if stolen == 0 {
		t.Fatal("no tasks stolen from a fully imbalanced queue")
	}
	if ran != 64 {
		t.Fatalf("ran %d, want 64", ran)
	}
}

func TestNoPolicyDrainsOwnQueues(t *testing.T) {
	var ran int64
	queues := [][]work.Task{
		makeTasks(10, &ran, 0),
		nil,
	}
	rep := Run(sched.Config{Workers: 2, Seed: 3}, queues)
	if ran != 10 {
		t.Fatalf("ran %d, want 10", ran)
	}
	if rep.Workers[1].TasksLocal+rep.Workers[1].TasksStolen != 0 {
		t.Fatal("worker 1 should have done nothing without a policy")
	}
}

func TestReshardWhenQueueCountMismatch(t *testing.T) {
	var ran int64
	queues := [][]work.Task{makeTasks(30, &ran, 0)} // 1 queue, 3 workers
	Run(sched.Config{Workers: 3, Policy: steal.Diffusive{}, Seed: 4}, queues)
	if ran != 30 {
		t.Fatalf("ran %d, want 30", ran)
	}
}

func TestSingleWorker(t *testing.T) {
	var ran int64
	queues := [][]work.Task{makeTasks(5, &ran, 0)}
	rep := Run(sched.Config{Workers: 1, Policy: steal.RandK{K: 8}, Seed: 5}, queues)
	if ran != 5 || rep.Workers[0].TasksLocal != 5 {
		t.Fatalf("single worker ran %d local %d", ran, rep.Workers[0].TasksLocal)
	}
}

func TestEmptyRun(t *testing.T) {
	rep := Run(sched.Config{Workers: 2, Policy: steal.Diffusive{}}, [][]work.Task{nil, nil})
	if len(rep.Tasks) != 0 {
		t.Fatal("nothing should have run")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	var ran int64
	queues := [][]work.Task{makeTasks(8, &ran, 0)}
	Run(sched.Config{Seed: 6}, queues) // default workers; reshard handles mismatch
	if ran != 8 {
		t.Fatalf("ran %d, want 8", ran)
	}
}

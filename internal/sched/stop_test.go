package sched_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parmp/internal/dist"
	"parmp/internal/exec"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// queuesOf builds w queues of n tasks each; every task increments ran and
// reports the given cost.
func queuesOf(w, n int, cost float64, ran *int64) [][]work.Task {
	queues := make([][]work.Task, w)
	id := 0
	for p := 0; p < w; p++ {
		for i := 0; i < n; i++ {
			queues[p] = append(queues[p], work.Task{ID: id, Run: func() float64 {
				if ran != nil {
					atomic.AddInt64(ran, 1)
				}
				return cost
			}})
			id++
		}
	}
	return queues
}

func TestCanceledNilStop(t *testing.T) {
	if sched.Canceled(nil) {
		t.Fatal("nil stop must never read as canceled")
	}
	ch := make(chan struct{})
	if sched.Canceled(ch) {
		t.Fatal("open stop must not read as canceled")
	}
	close(ch)
	if !sched.Canceled(ch) {
		t.Fatal("closed stop must read as canceled")
	}
}

func TestDistStopReturnsPartialReport(t *testing.T) {
	stop := make(chan struct{})
	close(stop) // already canceled: the run must stop at the first event
	var ran int64
	rep := dist.Runtime.Run(sched.Config{
		Workers: 4,
		Profile: work.Hopper(),
		Stop:    stop,
	}, queuesOf(4, 8, 10, &ran))
	if !rep.Stopped {
		t.Fatal("report must be marked Stopped")
	}
	if ran != 0 || len(rep.Tasks) != 0 {
		t.Fatalf("pre-canceled run executed %d tasks, recorded %d", ran, len(rep.Tasks))
	}
	if rep.TerminationCost != 0 {
		t.Fatal("stopped run must not charge termination detection")
	}

	// A stop that fires mid-run: the report records exactly what ran.
	stop = make(chan struct{})
	ran = 0
	queues := queuesOf(4, 8, 10, &ran)
	fire := queues[2][1].Run
	queues[2][1].Run = func() float64 {
		close(stop)
		return fire()
	}
	rep = dist.Runtime.Run(sched.Config{Workers: 4, Profile: work.Hopper(), Stop: stop}, queues)
	if !rep.Stopped || rep.TotalTasks != 32 {
		t.Fatalf("mid-run stop: Stopped %v, TotalTasks %d, want true, 32", rep.Stopped, rep.TotalTasks)
	}
	if int64(len(rep.Tasks)) != ran || ran == 0 || ran >= 32 {
		t.Fatalf("mid-run stop: %d records for %d executed tasks of 32", len(rep.Tasks), ran)
	}
	if last := rep.Tasks[len(rep.Tasks)-1]; last.ID != queues[2][1].ID || last.Worker != 2 {
		t.Fatalf("mid-run stop: last record %+v, want the stopping task %d on worker 2", last, queues[2][1].ID)
	}
}

func TestDistNoStopUnaffected(t *testing.T) {
	var ran int64
	base := dist.Runtime.Run(sched.Config{Workers: 4, Profile: work.Hopper()},
		queuesOf(4, 8, 10, &ran))
	var ran2 int64
	withStop := dist.Runtime.Run(sched.Config{
		Workers: 4, Profile: work.Hopper(), Stop: make(chan struct{}),
	}, queuesOf(4, 8, 10, &ran2))
	if base.Stopped || withStop.Stopped {
		t.Fatal("unfired stop must not mark reports stopped")
	}
	if base.Makespan != withStop.Makespan || ran != ran2 {
		t.Fatal("an unfired Stop channel must not perturb the simulation")
	}
}

func TestExecStopBetweenTasks(t *testing.T) {
	stop := make(chan struct{})
	var ran int64
	started := make(chan struct{})
	release := make(chan struct{})
	// Worker 0's first task signals that it is in flight and blocks until
	// released; cancellation fires while it runs, so it must complete but
	// no later task may start.
	queues := make([][]work.Task, 1)
	queues[0] = append(queues[0], work.Task{ID: 0, Run: func() float64 {
		close(started)
		<-release
		atomic.AddInt64(&ran, 1)
		return 1
	}})
	for i := 1; i < 16; i++ {
		queues[0] = append(queues[0], work.Task{ID: i, Run: func() float64 {
			atomic.AddInt64(&ran, 1)
			return 1
		}})
	}
	done := make(chan sched.Report, 1)
	go func() {
		done <- exec.Run(sched.Config{Workers: 1, Stop: stop}, queues)
	}()
	<-started
	close(stop)
	close(release)
	rep := <-done
	if !rep.Stopped {
		t.Fatal("report must be marked Stopped")
	}
	if got := atomic.LoadInt64(&ran); got != 1 {
		t.Fatalf("expected only the in-flight task to finish, ran %d", got)
	}
	if len(rep.Tasks) != 1 || rep.Tasks[0].ID != 0 || rep.TotalTasks != 16 {
		t.Fatalf("stopped run must record only the task that ran: %+v of %d", rep.Tasks, rep.TotalTasks)
	}
}

func TestExecStopLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	close(stop)
	rep := exec.Run(sched.Config{
		Workers: 8,
		Policy:  steal.RandK{K: 2},
		Stop:    stop,
	}, queuesOf(8, 4, 1, nil))
	if !rep.Stopped {
		t.Fatal("report must be marked Stopped")
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

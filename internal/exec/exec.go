// Package exec is the real shared-memory counterpart of the simulated
// machine in internal/dist: a goroutine-based work-stealing executor that
// runs region tasks on actual OS threads, using the same victim-selection
// policies (steal.Policy) and the same sched.Runtime contract as the
// simulator.
//
// Use it when planning for real (the library's normal mode on a multicore
// host); use internal/dist when reproducing the paper's strong-scaling
// figures with thousands of virtual processors.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// stealBackoffBase is the first idle-thief sleep after a fully failed
// steal round; successive failures double it up to 16 times this base,
// via the shared sched.Backoff curve.
const stealBackoffBase = 20 * time.Microsecond

func workers(cfg sched.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// deque is a mutex-protected double-ended task queue: the owner pops from
// the front, thieves take a chunk from the back. Steal accounting
// (tasks lost to thieves) happens under the same lock.
type deque struct {
	mu    sync.Mutex
	items []sched.Entry
	lost  int
}

func (d *deque) popFront() (sched.Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return sched.Entry{}, false
	}
	q := d.items[0]
	d.items = d.items[1:]
	return q, true
}

// stealBack removes one steal quantum (sched.TakeCount: ceil(n*chunk),
// the same rounding as the simulator) from the back of the deque.
func (d *deque) stealBack(chunk float64) []sched.Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var grant []sched.Entry
	d.items, grant = sched.StealBack(d.items, chunk)
	d.lost += len(grant)
	return grant
}

func (d *deque) pushBack(qs []sched.Entry) {
	d.mu.Lock()
	d.items = append(d.items, qs...)
	d.mu.Unlock()
}

// workerState accumulates one worker's results without sharing.
type workerState struct {
	busy    time.Duration
	finish  time.Duration
	local   int
	stolen  int
	issued  int
	granted int
	denied  int
	tasks   []sched.TaskResult
}

// Run executes the per-worker task queues to completion and returns the
// execution profile, in wall-clock seconds. cfg.Workers goroutines run
// (GOMAXPROCS when unset); cfg.Profile is ignored, as the executor pays
// real costs. Task closures run concurrently; they must be safe to run
// in parallel with each other (region tasks are: each touches only its
// own region's data).
func Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	w := workers(cfg)
	// Mismatched queue counts redistribute round-robin through the shared
	// sched.Reshard path, identically to the simulator.
	queues = sched.Reshard(queues, w)

	deques := make([]*deque, w)
	var stopped atomic.Bool
	var remaining int64
	for i := 0; i < w; i++ {
		deques[i] = &deque{}
		for _, t := range queues[i] {
			deques[i].items = append(deques[i].items, sched.Entry{Task: t})
			remaining++
		}
	}
	totalTasks := int(remaining)

	// Trace events from concurrent workers are serialized by a mutex; the
	// stream is real-time-ordered per worker but interleaved across them.
	var traceMu sync.Mutex
	start := time.Now()
	emit := func(kind string, proc, peer, task int) {
		if cfg.Trace == nil {
			return
		}
		traceMu.Lock()
		cfg.Trace(sched.TraceEvent{
			Time: time.Since(start).Seconds(), Kind: kind, Proc: proc, Peer: peer, Task: task,
		})
		traceMu.Unlock()
	}
	// Execution spans carry the task's start time and measured duration,
	// matching the simulator's exec events (start + cost), so trace
	// exporters see the same shape from both backends.
	emitExec := func(proc, task int, t0 time.Time, dur time.Duration) {
		if cfg.Trace == nil {
			return
		}
		traceMu.Lock()
		cfg.Trace(sched.TraceEvent{
			Time: t0.Sub(start).Seconds(), Kind: "exec", Proc: proc, Peer: -1, Task: task,
			Dur: dur.Seconds(),
		})
		traceMu.Unlock()
	}

	states := make([]workerState, w)
	var wg sync.WaitGroup
	for id := 0; id < w; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &states[id]
			r := rng.Derive(cfg.Seed, uint64(id)+1)
			stealing := cfg.Policy != nil && w > 1
			attempt := 0
			for {
				// Cooperative cancellation: between tasks is the worker's
				// checkpoint, so a running task finishes (its result stays
				// valid) and no new one starts after the stop fires.
				if sched.Canceled(cfg.Stop) {
					stopped.Store(true)
					if stealing {
						emit("retire", id, -1, -1)
					}
					return
				}
				if atomic.LoadInt64(&remaining) <= 0 {
					// All work executed. With stealing enabled a worker
					// retires exactly once, with a trace event, on every
					// exit path — the same lifecycle the simulator traces.
					if stealing {
						emit("retire", id, -1, -1)
					}
					return
				}
				if q, ok := deques[id].popFront(); ok {
					t0 := time.Now()
					cost := q.Task.Run()
					d := time.Since(t0)
					st.busy += d
					st.finish = time.Since(start)
					// Elapsed is the executor's half of the parity
					// contract: measured wall seconds the task occupied
					// this worker (the simulator records Elapsed == Cost).
					st.tasks = append(st.tasks, sched.TaskResult{
						ID: q.Task.ID, Worker: id, Cost: cost, Elapsed: d.Seconds(),
					})
					if q.Stolen {
						st.stolen++
					} else {
						st.local++
					}
					emitExec(id, q.Task.ID, t0, d)
					atomic.AddInt64(&remaining, -1)
					attempt = 0
					continue
				}
				if !stealing {
					return
				}
				if cfg.MaxRounds > 0 && attempt >= cfg.MaxRounds {
					// Too many failed rounds: give up, as in the
					// simulator. Remaining work still completes — every
					// pending task sits in a deque whose owner drains it.
					emit("retire", id, -1, -1)
					return
				}
				victims := cfg.Policy.Victims(id, w, attempt, r)
				if len(victims) == 0 {
					// Policy has nobody to ask (e.g. mesh corner in a
					// tiny system): retire for good, as in the simulator.
					emit("retire", id, -1, -1)
					return
				}
				stole := false
				for _, v := range victims {
					st.issued++
					emit("steal-req", id, v, -1)
					if grant := deques[v].stealBack(cfg.Chunk()); len(grant) > 0 {
						deques[id].pushBack(grant)
						st.granted++
						emit("steal-grant", id, v, grant[0].Task.ID)
						stole = true
						break
					}
					st.denied++
					emit("steal-deny", id, v, -1)
				}
				if stole {
					attempt = 0
					continue
				}
				attempt++
				// Nothing stealable right now: sleep a bounded exponential
				// backoff (the simulator's virtual-time curve, in wall
				// time) instead of hot-spinning on runtime.Gosched, which
				// hammers the victims' deque mutexes while they work. A
				// stop during the sleep wakes the thief immediately so
				// cancellation latency is not a backoff period.
				backoff := time.Duration(sched.Backoff(attempt, float64(stealBackoffBase)))
				if cfg.Stop != nil {
					timer := time.NewTimer(backoff)
					select {
					case <-cfg.Stop:
						timer.Stop()
					case <-timer.C:
					}
				} else {
					time.Sleep(backoff)
				}
			}
		}()
	}
	wg.Wait()

	wall := time.Since(start)
	rep := sched.Report{
		Makespan:   wall.Seconds(),
		Workers:    make([]sched.WorkerStats, w),
		TotalTasks: totalTasks,
		Tasks:      make([]sched.TaskResult, 0, totalTasks),
		Stopped:    stopped.Load(),
	}
	for id := range states {
		st := &states[id]
		rep.Workers[id] = sched.WorkerStats{
			Busy:          st.busy.Seconds(),
			Finish:        st.finish.Seconds(),
			TasksLocal:    st.local,
			TasksStolen:   st.stolen,
			TasksLost:     deques[id].lost,
			StealsIssued:  st.issued,
			StealsGranted: st.granted,
			StealsDenied:  st.denied,
		}
		rep.Tasks = append(rep.Tasks, st.tasks...)
	}
	return rep
}

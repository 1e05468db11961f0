// Package sched defines the scheduler runtime abstraction shared by the
// deterministic virtual-time simulator (internal/dist) and the real
// goroutine work-stealing executor (internal/exec): one Config, one
// Report, one Runtime interface, and the deque/steal-chunk machinery both
// backends execute.
//
// The planners in internal/core drive every pipeline phase through a
// Runtime, so the same phased workload can replay on the simulated
// distributed machine, run for real on host goroutines, or — in the
// future — execute on a network-distributed backend, without the
// planners changing.
package sched

import (
	"math"

	"parmp/internal/steal"
	"parmp/internal/work"
)

// Config parameterizes a runtime execution.
type Config struct {
	// Workers is the parallelism degree: virtual processors for the
	// simulator, goroutines for the host executor.
	Workers int
	// Profile supplies latency and handling constants (simulator only;
	// the host executor pays real costs instead).
	Profile work.MachineProfile
	// Policy selects steal victims; nil disables stealing entirely
	// (workers only drain their own queues).
	Policy steal.Policy
	// StealChunk is the fraction of a victim's pending deque transferred
	// per successful steal, from the back (default 0.5). At least one
	// task always transfers, so a vanishing fraction means one task per
	// steal, and values above 1 clamp to 1 ("steal everything"). Both
	// backends round the quantum up (see TakeCount).
	StealChunk float64
	// Seed drives victim randomization.
	Seed uint64
	// MaxRounds bounds how many consecutive unsuccessful victim rounds a
	// thief tries before giving up for good (0 = retry until global
	// termination). Bounded retries model schedulers whose idle
	// processors stop polling, leaving residual imbalance when work is
	// scarce — the paper's "low probability of finding work" effect.
	MaxRounds int
	// Stop, when non-nil, requests cooperative cancellation: the host
	// executor observes it between tasks (and while an idle thief sleeps),
	// the simulator between virtual events. A stopped run returns a
	// Report with Stopped set; already-executed tasks keep their records,
	// unexecuted ones are simply absent from Report.Tasks. Wire a
	// context's Done channel here to make a phase deadline-bounded.
	Stop <-chan struct{}
	// Trace, when non-nil, receives execution events (see TraceEvent):
	// in virtual-time order from the simulator, serialized but
	// real-time-ordered from the host executor. Debugging only.
	Trace Tracer
}

// Chunk returns the normalized steal fraction: the 0.5 default when
// StealChunk is unset (<= 0), clamped to 1 when it exceeds 1 — a caller
// asking for more than the whole deque means "steal everything", not the
// default.
func (c Config) Chunk() float64 {
	if c.StealChunk <= 0 {
		return 0.5
	}
	if c.StealChunk > 1 {
		return 1
	}
	return c.StealChunk
}

// WorkerStats reports one worker's execution profile. Times are virtual
// units for the simulator and seconds for the host executor; a worker's
// idle time is the report's Makespan minus its Busy.
type WorkerStats struct {
	Busy   float64 // time spent executing tasks
	Finish float64 // completion time of the worker's last task
	// TasksLocal counts tasks executed from the original assignment;
	// TasksStolen those stolen from others; TasksLost those stolen away.
	TasksLocal                                int
	TasksStolen                               int
	TasksLost                                 int
	StealsIssued, StealsGranted, StealsDenied int
}

// TaskResult is one executed task's outcome: who ran it and what it cost.
type TaskResult struct {
	// ID is the task's work.Task.ID (its region, in a region phase);
	// Worker is the worker that ultimately ran it (ownership transfer
	// makes this differ from the initial owner).
	ID, Worker int
	// Cost is the task's reported cost.
	Cost float64
	// Elapsed is the time the task actually occupied its worker, in the
	// report's time units: for the simulator this is identical to Cost (a
	// task occupies exactly its reported virtual cost); for the host
	// executor it is the measured wall-clock seconds of the task's Run
	// call (Cost stays whatever the closure reported, which may be in
	// different units).
	Elapsed float64
}

// Report is the outcome of a runtime execution.
type Report struct {
	// Makespan is the completion time of the whole run: virtual time for
	// the simulator, wall-clock seconds for the host executor.
	Makespan   float64
	Workers    []WorkerStats
	TotalTasks int
	// Tasks holds one record per executed task, in execution order (the
	// simulator's virtual-time order; the host executor's workers
	// concatenated, each in the order it ran its tasks). Parity contract,
	// asserted in internal/sched's tests: both backends record every
	// executed task exactly once, and each worker's Busy equals the sum of
	// its records' Elapsed.
	Tasks []TaskResult
	// TerminationCost is the virtual time spent detecting global
	// termination (simulator only; zero when stealing is disabled).
	TerminationCost float64
	// Stopped reports that the run was cancelled through Config.Stop
	// before all tasks executed. Tasks holds only what ran; makespans and
	// worker stats cover only the work done before the stop was observed.
	Stopped bool
}

// Canceled reports whether stop is non-nil and has fired, without
// blocking. Both runtime backends use this one check so "between tasks"
// and "between events" observe cancellation identically.
func Canceled(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Runtime executes per-worker task queues to completion: queues[w] is
// worker w's initial assignment, executed front to back, with steals
// taking a chunk from the back. When the queue count differs from the
// configured worker count, implementations must accept the workload
// anyway and redistribute it with Reshard (round-robin, task by task) —
// both backends share this re-shard path so a workload sharded for one
// parallelism degree runs identically-assigned on another.
// Implementations: internal/dist (virtual time), internal/exec (host
// goroutines).
type Runtime interface {
	Run(cfg Config, queues [][]work.Task) Report
}

// RuntimeFunc adapts a function to the Runtime interface.
type RuntimeFunc func(Config, [][]work.Task) Report

// Run implements Runtime.
func (f RuntimeFunc) Run(cfg Config, queues [][]work.Task) Report { return f(cfg, queues) }

// Entry is a deque entry: a task tagged with its provenance.
type Entry struct {
	Task   work.Task
	Stolen bool
}

// TakeCount returns how many of a victim's n pending tasks one steal
// transfers under the given chunk fraction: ceil(n*chunk), clamped to
// [1, n]. Rounding up is the shared rule for both backends — the
// simulator and the executor must transfer identical quanta so host
// runs reproduce simulated steal granularity.
func TakeCount(n int, chunk float64) int {
	if n <= 0 {
		return 0
	}
	take := int(math.Ceil(float64(n) * chunk))
	if take < 1 {
		take = 1
	}
	if take > n {
		take = n
	}
	return take
}

// Reshard redistributes queues over exactly workers deques when the
// counts differ, assigning tasks round-robin in queue order (task i of
// the flattened workload goes to worker i mod workers). Queues already
// sharded for the right worker count pass through unchanged, preserving
// the caller's assignment. Both Runtime backends use this one path, so a
// mismatched workload is never a panic in one backend and a silent
// re-shard in the other.
func Reshard(queues [][]work.Task, workers int) [][]work.Task {
	if workers <= 0 || len(queues) == workers {
		return queues
	}
	resharded := make([][]work.Task, workers)
	i := 0
	for _, q := range queues {
		for _, t := range q {
			resharded[i%workers] = append(resharded[i%workers], t)
			i++
		}
	}
	return resharded
}

// maxBackoffMultiple caps the retry backoff, as a multiple of its base.
const maxBackoffMultiple = 16

// Backoff returns the bounded exponential backoff delay after attempt
// consecutive failed steal rounds (attempt >= 1): base * 2^(attempt-1),
// capped at 16 × base. The simulator charges it in virtual time (base =
// the remote latency); the executor sleeps it in wall time — one curve,
// so idle thieves back off identically instead of hot-spinning on their
// victims' deques.
func Backoff(attempt int, base float64) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := base * math.Pow(2, float64(attempt-1))
	if lim := base * maxBackoffMultiple; d > lim {
		d = lim
	}
	return d
}

// StealBack removes one steal quantum from the back of items, marking the
// granted entries stolen. The grant is an independent copy, so the
// caller may keep appending to rest without clobbering it.
func StealBack(items []Entry, chunk float64) (rest, grant []Entry) {
	n := len(items)
	if n == 0 {
		return items, nil
	}
	take := TakeCount(n, chunk)
	grant = make([]Entry, take)
	copy(grant, items[n-take:])
	for i := range grant {
		grant[i].Stolen = true
	}
	return items[:n-take], grant
}

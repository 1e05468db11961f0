// Package dist simulates a distributed-memory machine executing region
// tasks under a work-stealing scheduler, in deterministic virtual time.
// It is the virtual-time implementation of the sched.Runtime interface;
// internal/exec is the real-goroutine one.
//
// It is the substitute for the paper's STAPL runtime on the Cray XE6 and
// Opteron cluster: P virtual processors each own a deque of region tasks;
// a task's cost is whatever work the real planner performs when the task
// runs (tasks are deterministic, so cost is independent of schedule);
// steal requests, replies and migrations travel as latency-weighted
// messages between processors (intra- vs inter-node latency per the
// machine profile). The simulation is event-driven and fully
// deterministic given the configuration seed, so strong-scaling sweeps to
// thousands of virtual processors run on any host.
package dist

import (
	"container/heap"
	"math"

	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// Runtime is the simulator as a pluggable scheduler backend.
var Runtime sched.Runtime = sched.RuntimeFunc(Run)

// event kinds.
const (
	evPop = iota
	evStealArrive
	evStealReply
)

type event struct {
	t    float64
	seq  int
	kind int
	proc int // target processor of the event

	// steal fields
	thief, victim int
	grant         []sched.Entry
}

type evHeap []*event

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// sim is the running simulation state.
type sim struct {
	cfg    sched.Config
	events evHeap
	seq    int

	deque [][]sched.Entry
	busy  []bool
	stats []sched.WorkerStats
	rngs  []*rng.Stream
	// attempt counts failed steal rounds per thief since last success.
	attempt []int
	// candidates is the remaining victim list of the thief's current round.
	candidates [][]int
	// pending holds steal requests that arrived while the victim was
	// executing a task; they are serviced at the next poll point (task
	// completion), modelling non-preemptive RMI handling.
	pending   [][]*event
	remaining int

	report sched.Report
}

func (s *sim) schedule(t float64, e *event) {
	e.t = t
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// Run executes the simulation. queues[p] is processor p's initial task
// assignment, executed front to back; steals take from the back. A queue
// count that differs from cfg.Workers is redistributed round-robin via
// sched.Reshard — the same path the host executor takes, per the
// sched.Runtime contract.
func Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	if cfg.Workers <= 0 {
		panic("dist: Config.Workers must be positive")
	}
	queues = sched.Reshard(queues, cfg.Workers)
	s := &sim{
		cfg:        cfg,
		deque:      make([][]sched.Entry, cfg.Workers),
		busy:       make([]bool, cfg.Workers),
		stats:      make([]sched.WorkerStats, cfg.Workers),
		rngs:       make([]*rng.Stream, cfg.Workers),
		attempt:    make([]int, cfg.Workers),
		candidates: make([][]int, cfg.Workers),
		pending:    make([][]*event, cfg.Workers),
	}
	for p := 0; p < cfg.Workers; p++ {
		s.rngs[p] = rng.Derive(cfg.Seed, uint64(p)+1)
		for _, t := range queues[p] {
			s.deque[p] = append(s.deque[p], sched.Entry{Task: t})
			s.remaining++
		}
	}
	s.report.TotalTasks = s.remaining
	s.report.Tasks = make([]sched.TaskResult, 0, s.remaining)
	for p := 0; p < cfg.Workers; p++ {
		s.schedule(0, &event{kind: evPop, proc: p})
	}
	for s.events.Len() > 0 {
		// Event boundaries are the simulator's cancellation checkpoints:
		// the nil fast path in sched.Canceled makes this free when no Stop
		// channel is configured, and a stopped run returns the partial
		// report (executed tasks keep their recorded costs).
		if sched.Canceled(cfg.Stop) {
			s.report.Stopped = true
			break
		}
		e := heap.Pop(&s.events).(*event)
		switch e.kind {
		case evPop:
			s.pop(e)
		case evStealArrive:
			s.stealArrive(e)
		case evStealReply:
			s.stealReply(e)
		}
	}
	for p := range s.stats {
		if s.stats[p].Finish > s.report.Makespan {
			s.report.Makespan = s.stats[p].Finish
		}
	}
	// Work stealing needs distributed termination detection: a processor
	// with an empty deque cannot distinguish "all done" from "work still
	// in flight" (the paper's Algorithm 3 outer loop). We charge
	// tree-based detection waves after global quiescence, priced like
	// barriers so the overhead grows with log2(P) as in practical
	// implementations; a serial token ring would scale O(P) and swamp the
	// stealing benefit at thousands of processors.
	if cfg.Policy != nil && cfg.Workers > 1 && s.report.TotalTasks > 0 && !s.report.Stopped {
		// Two barrier-equivalent reduction waves confirm quiescence.
		s.report.TerminationCost = 2 * cfg.Profile.Barrier(cfg.Workers)
		s.report.Makespan += s.report.TerminationCost
	}
	s.report.Workers = s.stats
	return s.report
}

// pop makes processor e.proc take its next task or begin stealing.
// Task completion is the processor's poll point: steal requests that
// arrived during the finished task are serviced first.
func (s *sim) pop(e *event) {
	p := e.proc
	s.busy[p] = false
	if len(s.pending[p]) > 0 {
		reqs := s.pending[p]
		s.pending[p] = nil
		for _, req := range reqs {
			s.serveSteal(req, e.t)
		}
	}
	if len(s.deque[p]) > 0 {
		q := s.deque[p][0]
		s.deque[p] = s.deque[p][1:]
		s.execute(p, q, e.t)
		return
	}
	s.tryStealRound(p, e.t)
}

// execute runs a task on p starting at time t.
func (s *sim) execute(p int, q sched.Entry, t float64) {
	s.busy[p] = true
	cost := q.Task.Run()
	if cost < 0 || math.IsNaN(cost) {
		cost = 0
	}
	done := t + cost
	s.stats[p].Busy += cost
	if done > s.stats[p].Finish {
		s.stats[p].Finish = done
	}
	if q.Stolen {
		s.stats[p].TasksStolen++
	} else {
		s.stats[p].TasksLocal++
	}
	s.traceExec(t, p, q.Task.ID, cost)
	// In virtual time a task occupies its worker for exactly its reported
	// cost, so Elapsed == Cost is the simulator's half of the parity
	// contract (the executor records measured wall time instead).
	s.report.Tasks = append(s.report.Tasks, sched.TaskResult{
		ID: q.Task.ID, Worker: p, Cost: cost, Elapsed: cost,
	})
	s.remaining--
	s.attempt[p] = 0
	s.candidates[p] = nil
	s.schedule(done, &event{kind: evPop, proc: p})
}

// tryStealRound starts or continues a steal round for thief p at time t.
// Every retirement path emits a "retire" trace event — the executor does
// the same, so the two backends' trace streams agree on worker lifecycle
// (asserted by the parity tests in internal/sched).
func (s *sim) tryStealRound(p int, t float64) {
	if s.cfg.Policy == nil || s.cfg.Workers <= 1 {
		return // stealing disabled: no thief lifecycle, no retire event
	}
	if s.remaining == 0 {
		s.trace(t, "retire", p, -1, -1)
		return // all work executed: retire into termination detection
	}
	if s.cfg.MaxRounds > 0 && s.attempt[p] >= s.cfg.MaxRounds {
		s.trace(t, "retire", p, -1, -1)
		return // too many failed rounds: give up
	}
	if len(s.candidates[p]) == 0 {
		s.candidates[p] = s.cfg.Policy.Victims(p, s.cfg.Workers, s.attempt[p], s.rngs[p])
		if len(s.candidates[p]) == 0 {
			// Policy has nobody to ask (e.g. mesh corner in a tiny
			// system); retire.
			s.trace(t, "retire", p, -1, -1)
			return
		}
	}
	v := s.candidates[p][0]
	s.candidates[p] = s.candidates[p][1:]
	s.stats[p].StealsIssued++
	s.trace(t, "steal-req", p, v, -1)
	s.schedule(t+s.cfg.Profile.Latency(p, v),
		&event{kind: evStealArrive, proc: v, thief: p, victim: v})
}

// stealArrive receives a steal request at the victim. A busy victim
// (non-preemptively executing a region) queues the request until its next
// poll point; an idle one serves it immediately.
func (s *sim) stealArrive(e *event) {
	v := e.victim
	if s.busy[v] {
		s.pending[v] = append(s.pending[v], e)
		return
	}
	s.serveSteal(e, e.t)
}

// serveSteal answers a steal request at time t. Ownership transfer is not
// free: the reply carries each stolen region's descriptor and any data
// already attached to it (its Payload), priced like a migration.
func (s *sim) serveSteal(e *event, t float64) {
	v, thief := e.victim, e.thief
	var grant []sched.Entry
	transfer := 0.0
	s.deque[v], grant = sched.StealBack(s.deque[v], s.cfg.Chunk())
	for i := range grant {
		transfer += s.cfg.Profile.MigrateFixed +
			s.cfg.Profile.MigratePerVertex*float64(grant[i].Task.Payload)
	}
	s.stats[v].TasksLost += len(grant)
	reply := &event{kind: evStealReply, proc: thief, thief: thief, victim: v, grant: grant}
	s.schedule(t+s.cfg.Profile.StealHandling+s.cfg.Profile.Latency(v, thief)+transfer, reply)
}

// stealReply delivers the victim's response to the thief.
func (s *sim) stealReply(e *event) {
	p := e.thief
	if len(e.grant) > 0 {
		s.stats[p].StealsGranted++
		s.trace(e.t, "steal-grant", p, e.victim, e.grant[0].Task.ID)
		s.deque[p] = append(s.deque[p], e.grant...)
		s.attempt[p] = 0
		s.candidates[p] = nil
		if !s.busy[p] {
			s.schedule(e.t, &event{kind: evPop, proc: p})
		}
		return
	}
	s.stats[p].StealsDenied++
	s.trace(e.t, "steal-deny", p, e.victim, -1)
	if s.remaining == 0 {
		s.trace(e.t, "retire", p, -1, -1)
		return
	}
	if len(s.candidates[p]) > 0 {
		// Ask the next candidate of this round immediately.
		s.tryStealRound(p, e.t)
		return
	}
	// Round exhausted: back off exponentially, then start a new round.
	s.attempt[p]++
	backoff := sched.Backoff(s.attempt[p], s.cfg.Profile.LatencyRemote)
	s.schedule(e.t+backoff, &event{kind: evPop, proc: p})
}

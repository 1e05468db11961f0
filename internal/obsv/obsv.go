// Package obsv is the observability layer over the scheduler runtime:
// it derives the paper's load-balance metrics — imbalance factor,
// utilization, steal efficiency, migration volume — from any
// sched.Report (either backend, virtual or wall-clock time; see
// Analyze), and exports execution traces in Chrome trace_event JSON for
// chrome://tracing and Perfetto (see ChromeTrace).
//
// The paper's central evidence is per-processor utilization over time
// (its Figures 9-12: who was busy, who idled, who stole); this package
// makes those quantities first-class for every phase of a run instead of
// burying them in raw worker stats.
package obsv

import (
	"parmp/internal/metrics"
	"parmp/internal/sched"
)

// Metrics are the load-balance summaries derived from one sched.Report.
// Times are in the report's units (virtual units for the simulator,
// seconds for the host executor); every ratio is unit-free, so the two
// backends' metrics compare directly.
type Metrics struct {
	// Makespan is the report's completion time.
	Makespan float64
	// BusyTotal is the summed busy time over all workers.
	BusyTotal float64
	// Utilization is BusyTotal / (workers * Makespan): the fraction of
	// available worker-time spent executing tasks (1 = no idling).
	Utilization float64
	// Imbalance is the imbalance factor max(busy) / mean(busy): 1 for a
	// perfectly balanced phase, growing as work concentrates; 0 when no
	// work ran at all.
	Imbalance float64
	// BusyCV is the coefficient of variation of per-worker busy time —
	// the paper's imbalance measure, and the one Demiralp et al. judge
	// a balancer by, per phase.
	BusyCV float64
	// StealEfficiency is StealsGranted / StealsIssued — the fraction of
	// steal requests that came back with work. It is 1 when no steals
	// were issued (nothing was wasted).
	StealEfficiency float64
	// Steal request accounting, summed over workers.
	StealsIssued, StealsGranted, StealsDenied int
	// TasksMigrated counts tasks executed by a worker other than the one
	// originally assigned (the sum of per-worker TasksStolen).
	TasksMigrated int
	// TaskTransfers counts deque-to-deque task moves, including re-steals
	// of tasks that never ran on the intermediate thief (the sum of
	// per-worker TasksLost); it is >= TasksMigrated, and the migration
	// volume the machine actually paid for.
	TaskTransfers int
}

// Analyze derives load-balance metrics from a runtime report.
func Analyze(rep sched.Report) Metrics {
	m := Metrics{Makespan: rep.Makespan}
	var maxBusy float64
	busy := make([]float64, len(rep.Workers))
	for i, ws := range rep.Workers {
		busy[i] = ws.Busy
		m.BusyTotal += ws.Busy
		if ws.Busy > maxBusy {
			maxBusy = ws.Busy
		}
		m.StealsIssued += ws.StealsIssued
		m.StealsGranted += ws.StealsGranted
		m.StealsDenied += ws.StealsDenied
		m.TasksMigrated += ws.TasksStolen
		m.TaskTransfers += ws.TasksLost
	}
	m.BusyCV = metrics.CV(busy)
	if n := len(rep.Workers); n > 0 {
		if mean := m.BusyTotal / float64(n); mean > 0 {
			m.Imbalance = maxBusy / mean
		}
		if m.Makespan > 0 {
			m.Utilization = m.BusyTotal / (float64(n) * m.Makespan)
		}
	}
	m.StealEfficiency = 1
	if m.StealsIssued > 0 {
		m.StealEfficiency = float64(m.StealsGranted) / float64(m.StealsIssued)
	}
	return m
}

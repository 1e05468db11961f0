package obsv

import (
	"math"
	"testing"

	"parmp/internal/sched"
)

// report builds a Report from per-worker busy times and steal counters.
func report(makespan float64, ws []sched.WorkerStats) sched.Report {
	return sched.Report{Makespan: makespan, Workers: ws}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAnalyzeMath(t *testing.T) {
	// Two workers: busy 6 and 2 over a makespan of 8.
	//   utilization = (6+2) / (2*8)   = 0.5
	//   imbalance   = max 6 / mean 4  = 1.5
	//   busy CV     = sigma 2 / mean 4 = 0.5
	//   steal-eff   = 2 granted / 4 issued = 0.5
	rep := report(8, []sched.WorkerStats{
		{Busy: 6, StealsIssued: 3, StealsGranted: 2, StealsDenied: 1, TasksStolen: 2, TasksLost: 0},
		{Busy: 2, StealsIssued: 1, StealsDenied: 1, TasksLost: 3},
	})
	m := Analyze(rep)
	if !almost(m.BusyTotal, 8) {
		t.Errorf("BusyTotal = %v, want 8", m.BusyTotal)
	}
	if !almost(m.Utilization, 0.5) {
		t.Errorf("Utilization = %v, want 0.5", m.Utilization)
	}
	if !almost(m.Imbalance, 1.5) {
		t.Errorf("Imbalance = %v, want 1.5", m.Imbalance)
	}
	if !almost(m.BusyCV, 0.5) {
		t.Errorf("BusyCV = %v, want 0.5", m.BusyCV)
	}
	if !almost(m.StealEfficiency, 0.5) {
		t.Errorf("StealEfficiency = %v, want 0.5", m.StealEfficiency)
	}
	if m.StealsIssued != 4 || m.StealsGranted != 2 || m.StealsDenied != 2 {
		t.Errorf("steal counts = %d/%d/%d, want 4/2/2",
			m.StealsIssued, m.StealsGranted, m.StealsDenied)
	}
	if m.TasksMigrated != 2 {
		t.Errorf("TasksMigrated = %d, want 2", m.TasksMigrated)
	}
	if m.TaskTransfers != 3 {
		t.Errorf("TaskTransfers = %d, want 3", m.TaskTransfers)
	}
}

func TestAnalyzePerfectBalance(t *testing.T) {
	rep := report(4, []sched.WorkerStats{{Busy: 4}, {Busy: 4}, {Busy: 4}})
	m := Analyze(rep)
	if !almost(m.Imbalance, 1) {
		t.Errorf("Imbalance = %v, want 1 (perfect balance)", m.Imbalance)
	}
	if m.BusyCV != 0 {
		t.Errorf("BusyCV = %v, want 0 (perfect balance)", m.BusyCV)
	}
	if !almost(m.Utilization, 1) {
		t.Errorf("Utilization = %v, want 1", m.Utilization)
	}
	// No steals issued: nothing wasted, efficiency is 1 by definition.
	if !almost(m.StealEfficiency, 1) {
		t.Errorf("StealEfficiency = %v, want 1 with no steals", m.StealEfficiency)
	}
}

func TestAnalyzeDegenerate(t *testing.T) {
	// Empty report: every ratio must stay finite.
	m := Analyze(sched.Report{})
	if m.Imbalance != 0 || m.Utilization != 0 {
		t.Errorf("empty report: imbalance %v utilization %v, want 0/0", m.Imbalance, m.Utilization)
	}
	// Workers that never ran anything.
	m = Analyze(report(5, []sched.WorkerStats{{}, {}}))
	if m.Imbalance != 0 || m.Utilization != 0 || m.BusyCV != 0 {
		t.Errorf("idle workers: imbalance %v utilization %v busy CV %v, want 0/0/0", m.Imbalance, m.Utilization, m.BusyCV)
	}
}

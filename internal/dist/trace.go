package dist

import "parmp/internal/sched"

// trace emits an event if tracing is enabled.
func (s *sim) trace(t float64, kind string, proc, peer, task int) {
	if s.cfg.Trace != nil {
		s.cfg.Trace(sched.TraceEvent{Time: t, Kind: kind, Proc: proc, Peer: peer, Task: task})
	}
}

// traceExec emits a task-execution span: start time plus duration, so
// trace exporters (e.g. obsv.ChromeTrace) render exact busy intervals.
func (s *sim) traceExec(t float64, proc, task int, dur float64) {
	if s.cfg.Trace != nil {
		s.cfg.Trace(sched.TraceEvent{Time: t, Kind: "exec", Proc: proc, Peer: -1, Task: task, Dur: dur})
	}
}

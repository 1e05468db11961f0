package sched

// TraceEvent is one runtime occurrence, emitted through Config.Trace.
// "exec" events carry the task's start time and duration; protocol events
// (steal-req/grant/deny, retire) are instants with Dur == 0.
type TraceEvent struct {
	Time float64 // virtual units (simulator) or seconds since start (executor)
	Kind string  // "exec", "steal-req", "steal-grant", "steal-deny", "retire"
	Proc int     // acting worker
	Peer int     // counterpart (victim/thief), -1 when not applicable
	Task int     // task ID, -1 when not applicable
	Dur  float64 // task duration for "exec" events, 0 otherwise
}

// Tracer receives runtime events.
type Tracer func(TraceEvent)

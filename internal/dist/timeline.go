package dist

import (
	"fmt"
	"strings"

	"parmp/internal/sched"
)

// Timeline renders an ASCII utilization chart from a traced run: one row
// per processor, '#' where the processor was executing a task and '.'
// where it was idle or communicating. events must come from a Run with
// Config.Trace installed; rep supplies the makespan, the processor count
// and the worker totals.
func Timeline(events []sched.TraceEvent, rep sched.Report, width int) []string {
	procs := len(rep.Workers)
	if width < 1 {
		width = 1
	}
	scale := rep.Makespan / float64(width)
	if scale <= 0 {
		scale = 1
	}
	rows := make([][]byte, procs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	for _, ev := range events {
		if ev.Kind != "exec" || ev.Proc < 0 || ev.Proc >= procs {
			continue
		}
		from := int(ev.Time / scale)
		to := int((ev.Time + ev.Dur) / scale)
		for i := from; i <= to && i < width; i++ {
			rows[ev.Proc][i] = '#'
		}
	}
	out := make([]string, procs)
	for p, ps := range rep.Workers {
		out[p] = fmt.Sprintf("p%-3d |%s| busy=%.0f local=%d stolen=%d",
			p, rows[p], ps.Busy, ps.TasksLocal, ps.TasksStolen)
	}
	return out
}

package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/obsv"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// stealingRun plans one PRM round under RAND-2 stealing on a runtime
// that hands the simulator whatever Config rewrite returns.
func stealingRun(t *testing.T, rewrite func(sched.Config) sched.Config) *PRMResult {
	t.Helper()
	opts := quickOpts(4, 64)
	opts.Policy = steal.RandK{K: 2}
	opts.Runtime = sched.RuntimeFunc(func(cfg sched.Config, queues [][]work.Task) sched.Report {
		return dist.Runtime.Run(rewrite(cfg), queues)
	})
	res, err := oneRound(NewPRMEngine(cspace.NewPointSpace(env.MedCube()), opts))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMaxRoundsDefaultsAndMapping(t *testing.T) {
	// The retry bound is no longer an option: every phase the pipeline
	// hands a runtime carries the paper's four bounded victim rounds.
	phases := 0
	stealingRun(t, func(cfg sched.Config) sched.Config {
		phases++
		if cfg.MaxRounds != 4 {
			t.Errorf("phase %d: sched.Config.MaxRounds = %d, want 4", phases, cfg.MaxRounds)
		}
		return cfg
	})
	if phases == 0 {
		t.Fatal("the run replayed no phase")
	}
}

func TestMaxRoundsSweepable(t *testing.T) {
	// The bound stays sweepable where it lives, in sched.Config: any
	// value (0 = unbounded) must leave the planning output untouched — it
	// only changes who gives up stealing when.
	var ref *PRMResult
	for _, rounds := range []int{1, 4, 0} {
		res := stealingRun(t, func(cfg sched.Config) sched.Config {
			cfg.MaxRounds = rounds
			return cfg
		})
		if ref == nil {
			ref = res
			continue
		}
		if res.Roadmap.NumNodes() != ref.Roadmap.NumNodes() ||
			res.Roadmap.NumEdges() != ref.Roadmap.NumEdges() {
			t.Fatalf("MaxRounds=%d changed the roadmap: %d/%d vs %d/%d", rounds,
				res.Roadmap.NumNodes(), res.Roadmap.NumEdges(),
				ref.Roadmap.NumNodes(), ref.Roadmap.NumEdges())
		}
	}
}

func TestPRMPhaseReportsExposed(t *testing.T) {
	// The pipeline used to discard every phase's sched.Report after
	// accounting; results now keep them all, in replay order, so
	// load-balance metrics derive from a finished run without rerunning.
	s := cspace.NewPointSpace(env.MedCube())
	opts := quickOpts(4, 64)
	opts.Policy = steal.RandK{K: 2}
	res, err := oneRound(NewPRMEngine(s, opts))
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []string{"sample", "construct", "region-connect"}
	if len(res.PhaseReports) != len(wantPhases) {
		t.Fatalf("got %d phase reports (%v), want %d", len(res.PhaseReports), res.PhaseReports, len(wantPhases))
	}
	for i, pr := range res.PhaseReports {
		if pr.Phase != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, pr.Phase, wantPhases[i])
		}
		if pr.Report.TotalTasks == 0 {
			t.Errorf("phase %q report has no tasks", pr.Phase)
		}
		if len(pr.Report.Workers) != opts.Procs {
			t.Errorf("phase %q report covers %d workers, want %d", pr.Phase, len(pr.Report.Workers), opts.Procs)
		}
	}
	// The construct report is the one already surfaced as ProcStats.
	construct := res.PhaseReports[1].Report
	if len(construct.Workers) != len(res.ProcStats) || construct.Workers[0] != res.ProcStats[0] {
		t.Errorf("construct phase report disagrees with ProcStats")
	}
	// Derived metrics must come out finite and sane via internal/obsv.
	for _, pr := range res.PhaseReports {
		m := obsv.Analyze(pr.Report)
		if m.Utilization <= 0 || m.Utilization > 1+1e-9 {
			t.Errorf("phase %q utilization = %v, want in (0, 1]", pr.Phase, m.Utilization)
		}
		if m.Imbalance < 1 {
			t.Errorf("phase %q imbalance = %v, want >= 1", pr.Phase, m.Imbalance)
		}
	}
}

func TestRRTPhaseReportsExposed(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	opts := rrtOpts(4, 24)
	opts.Strategy = Repartition
	res, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), opts))
	if err != nil {
		t.Fatal(err)
	}
	// Repartition adds the k-ray weight phase ahead of construct.
	wantPhases := []string{"weight", "construct", "region-connect"}
	if len(res.PhaseReports) != len(wantPhases) {
		t.Fatalf("got %d phase reports, want %d", len(res.PhaseReports), len(wantPhases))
	}
	for i, pr := range res.PhaseReports {
		if pr.Phase != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, pr.Phase, wantPhases[i])
		}
	}
	for _, pr := range res.PhaseReports[:2] {
		if m := obsv.Analyze(pr.Report); m.Makespan <= 0 || m.Imbalance < 1 {
			t.Errorf("phase %q makespan = %v, imbalance = %v, want > 0 and >= 1", pr.Phase, m.Makespan, m.Imbalance)
		}
	}
}

// hostPass is one phase's host execution as the pipeline handed it to
// the executor, with the executor's report.
type hostPass struct {
	cfg    sched.Config
	queues [][]work.Task
	rep    sched.Report
}

// observeHostPasses records every host execution until the test ends.
func observeHostPasses(t *testing.T) map[string]hostPass {
	passes := map[string]hostPass{}
	hostPhaseObserver = func(phase string, cfg sched.Config, queues [][]work.Task, rep sched.Report) {
		passes[phase] = hostPass{cfg: cfg, queues: queues, rep: rep}
	}
	t.Cleanup(func() { hostPhaseObserver = nil })
	return passes
}

// checkHostPasses asserts what the pipeline owns about host execution of
// each named phase: it reached the executor configured with hw workers,
// its tasks were sharded over at least two of their queues, and every
// task executed exactly once. How many workers actually got to run a
// task is scheduler luck (one worker regularly drains a millisecond
// phase before the second wakes) and is deliberately not asserted;
// TestHostPrePassIdenticalResults / TestRRTHostPrePassIdentical check
// that the results do not depend on it.
func checkHostPasses(t *testing.T, passes map[string]hostPass, hw int, phases ...string) {
	t.Helper()
	for _, phase := range phases {
		p, ok := passes[phase]
		if !ok {
			t.Errorf("phase %q never reached the host executor", phase)
			continue
		}
		if p.cfg.Workers != hw || len(p.rep.Workers) != hw {
			t.Errorf("phase %q: executor configured with %d workers, reported %d, want %d",
				phase, p.cfg.Workers, len(p.rep.Workers), hw)
		}
		total, sharded := 0, 0
		for _, q := range sched.Reshard(p.queues, p.cfg.Workers) {
			total += len(q)
			if len(q) > 0 {
				sharded++
			}
		}
		if sharded < 2 {
			t.Errorf("phase %q: %d tasks offered to %d workers, want >= 2", phase, total, sharded)
		}
		ran := 0
		for _, ws := range p.rep.Workers {
			ran += ws.TasksLocal + ws.TasksStolen
		}
		ids := map[int]bool{}
		for _, r := range p.rep.Tasks {
			ids[r.ID] = true
		}
		if p.rep.Stopped || p.rep.TotalTasks != total || ran != total || len(p.rep.Tasks) != total || len(ids) != total {
			t.Errorf("phase %q: %d tasks queued, %d reported, %d executions, %d records of %d distinct ids (stopped=%v)",
				phase, total, p.rep.TotalTasks, ran, len(p.rep.Tasks), len(ids), p.rep.Stopped)
		}
	}
}

// hostWorkers picks a worker count that exercises the concurrent paths
// even on a single-CPU host.
func hostWorkers() int {
	if hw := runtime.GOMAXPROCS(0); hw >= 2 {
		return hw
	}
	return 4
}

func TestPRMHostPhasesRunConcurrently(t *testing.T) {
	// The acceptance check for the pipeline refactor: with HostWorkers set,
	// PRM sampling AND region connection (not just node connection) execute
	// through the host executor, sharded over its workers: 64 regions over
	// 4 queues (sample/construct) and a round-robin reshard of the pair
	// tasks (region-connect).
	hw := hostWorkers()
	passes := observeHostPasses(t)
	s := cspace.NewPointSpace(env.MedCube())
	opts := quickOpts(4, 64)
	opts.HostWorkers = hw
	if _, err := oneRound(NewPRMEngine(s, opts)); err != nil {
		t.Fatal(err)
	}
	checkHostPasses(t, passes, hw, "sample", "construct", "region-connect")

	// The repair path reaches the executor too: one delta whose box
	// invalidates part of the roadmap re-checks every region and every
	// connector.
	mutated, delta := mutateAddBox(t, env.MedCube(), geom.Box3(0.05, 0.1, 0.1, 0.3, 0.3, 0.9))
	e, err := NewPRMEngine(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	growPRM(t, e, 1)
	if _, err := e.ApplyDelta(s.WithEnv(mutated), delta, nil, nil); err != nil {
		t.Fatal(err)
	}
	checkHostPasses(t, passes, hw, "repair", "repair-boundary")
}

func TestRRTHostPhasesRunConcurrently(t *testing.T) {
	hw := hostWorkers()
	passes := observeHostPasses(t)
	s := cspace.NewPointSpace(env.Mixed30())
	opts := rrtOpts(4, 24)
	opts.HostWorkers = hw
	if _, err := oneRound(NewRRTEngine(s, geom.V(0.5, 0.5, 0.5), opts)); err != nil {
		t.Fatal(err)
	}
	checkHostPasses(t, passes, hw, "construct", "region-connect")
}

// doubleCall is an Options.Runtime decorator that calls every task it is
// handed once more before forwarding to the DES, so a replay that runs
// task bodies runs each of them twice. It keeps the payload of every
// task it replays, by ID.
type doubleCall struct {
	replays  int
	payloads map[int]int
}

func (d *doubleCall) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	d.replays++
	d.payloads = map[int]int{}
	for _, q := range queues {
		for _, t := range q {
			t.Run()
			d.payloads[t.ID] = t.Payload
		}
	}
	return dist.Runtime.Run(cfg, queues)
}

// Every task body of a phase runs exactly once, at every HostWorkers, and
// the replay accounts for what the bodies returned and keeps each task's
// payload; a phase stopped before it starts runs no body and replays
// nothing.
func TestPhaseTasksRunOnce(t *testing.T) {
	const procs, n = 4, 37
	policies := []struct {
		name string
		p    steal.Policy
	}{{"bsp", nil}, {"hybrid", steal.Hybrid{K: 2}}}
	for _, hw := range []int{0, 1, 4} {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("hw%d/%s", hw, policy.name), func(t *testing.T) {
				var bodies atomic.Int64
				cost := func(i int) float64 { return float64(1 + i*i%7) }
				id := func(i int) int { return 3*i + 5 }
				queues := func() [][]work.Task {
					qs := make([][]work.Task, procs)
					for i := 0; i < n; i++ {
						// IDs are unique but not dense: the executor
						// renumbers them and its records must not.
						qs[i%procs] = append(qs[i%procs], work.Task{ID: id(i), Payload: 2*i + 1, Run: func() float64 {
							bodies.Add(1)
							return cost(i)
						}})
					}
					return qs
				}
				rt := &doubleCall{}
				opts := quickOpts(procs, 16)
				opts.HostWorkers, opts.Runtime = hw, rt
				pl := newPipeline(opts)

				rep := pl.run(phaseSpec{name: "count", queues: queues(), policy: policy.p})
				if got := bodies.Load(); got != n {
					t.Fatalf("%d task bodies ran for %d tasks", got, n)
				}
				if rep.Stopped || rt.replays != 1 || len(rep.Tasks) != n || len(pl.reports) != 1 {
					t.Fatalf("stopped %v, %d replays, %d task records, %d logged reports; want false, 1, %d, 1",
						rep.Stopped, rt.replays, len(rep.Tasks), len(pl.reports), n)
				}
				seen := make([]bool, n)
				for _, r := range rep.Tasks {
					i := (r.ID - 5) / 3
					if i < 0 || i >= n || r.ID != id(i) || seen[i] {
						t.Fatalf("record %+v is no task's or repeats one", r)
					}
					if r.Cost != cost(i) || rt.payloads[r.ID] != 2*i+1 {
						t.Fatalf("task %d replayed at cost %v with payload %d, want %v, %d", i, r.Cost, rt.payloads[r.ID], cost(i), 2*i+1)
					}
					seen[i] = true
				}

				stop := make(chan struct{})
				close(stop)
				pl.stop = stop
				bodies.Store(0)
				rep = pl.run(phaseSpec{name: "count", queues: queues(), policy: policy.p})
				if !rep.Stopped || rt.replays != 1 || len(pl.reports) != 1 || bodies.Load() != 0 {
					t.Fatalf("stopped first: stopped %v, %d replays, %d logged reports, %d bodies; want true, 1, 1, 0",
						rep.Stopped, rt.replays, len(pl.reports), bodies.Load())
				}
			})
		}
	}
}

// Stealing a tree region moves its committed branch, so from round 1 on
// every RRT-Connect construct task the replay queues carries that
// branch's size as its payload: the data a steal of it is priced by.
func TestRRTConstructPayloadIsCommittedBranch(t *testing.T) {
	var replays [][][]work.Task
	opts := rrtOpts(4, 16)
	opts.Policy = steal.Hybrid{K: 8}
	opts.Runtime = sched.RuntimeFunc(func(cfg sched.Config, queues [][]work.Task) sched.Report {
		replays = append(replays, queues)
		return dist.Runtime.Run(cfg, queues)
	})
	e, err := NewRRTConnectEngine(cspace.NewPointSpace(env.ByName("walls")), geom.V(0.1, 0.1, 0.5), geom.V(0.9, 0.9, 0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	growRRT(t, e, 1)
	sizes := make([]int, len(e.branches))
	for i, b := range e.branches {
		sizes[i] = b.size()
	}
	mark := len(replays)
	reports := growRRT(t, e, 1).PhaseReports
	construct := slices.IndexFunc(reports[mark:], func(pr PhaseReport) bool { return pr.Phase == "construct" })
	if construct < 0 || len(reports) != len(replays) {
		t.Fatalf("round 1 logged %d reports for %d replays, construct at %d", len(reports), len(replays), construct)
	}
	tasks, carried := 0, 0
	for _, q := range replays[mark+construct] {
		for _, task := range q {
			if task.Payload != sizes[task.ID] {
				t.Errorf("region %d's construct task carries payload %d, its committed branch has %d nodes", task.ID, task.Payload, sizes[task.ID])
			}
			tasks++
			carried += task.Payload
		}
	}
	if tasks != len(sizes) || carried == 0 {
		t.Fatalf("round 1 construct queued %d tasks carrying %d nodes, want %d tasks carrying the grown branches", tasks, carried, len(sizes))
	}
}

// Every replayed phase logs its makespan bound, max(Σ cost / Procs,
// max cost) over its task records, and no balancer beats it: PRM and
// RRT-Connect under no-LB, repartitioning, hybrid stealing and both.
func TestPhaseMakespanNeverBeatsBound(t *testing.T) {
	balancers := []struct {
		name     string
		strategy Strategy
		policy   steal.Policy
	}{
		{"nolb", NoLB, nil},
		{"repart", Repartition, nil},
		{"hybrid", NoLB, steal.Hybrid{K: 8}},
		{"repart+hybrid", Repartition, steal.Hybrid{K: 8}},
	}
	for _, b := range balancers {
		prm := quickOpts(4, 64)
		prm.Strategy, prm.Policy = b.strategy, b.policy
		prmRes, err := oneRound(NewPRMEngine(cspace.NewPointSpace(env.MedCube()), prm))
		if err != nil {
			t.Fatal(err)
		}
		rrt := rrtOpts(4, 16)
		rrt.Strategy, rrt.Policy = b.strategy, b.policy
		e, err := NewRRTConnectEngine(cspace.NewPointSpace(env.ByName("walls")), geom.V(0.1, 0.1, 0.5), geom.V(0.9, 0.9, 0.5), rrt)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			planner string
			reports []PhaseReport
		}{{"prm", prmRes.PhaseReports}, {"rrtconnect", growRRT(t, e, 2).PhaseReports}} {
			if len(run.reports) == 0 {
				t.Fatalf("%s %s: no phase reports", run.planner, b.name)
			}
			for _, pr := range run.reports {
				if pr.Bound <= 0 || pr.Report.Makespan < pr.Bound*(1-1e-12) {
					t.Errorf("%s %s %s: makespan %v, bound %v", run.planner, b.name, pr.Phase, pr.Report.Makespan, pr.Bound)
				}
			}
		}
	}
}

// The bound is the larger of the mean load and the largest task: one
// task bounds its phase by its own cost, many small ones by their mean.
func TestPhaseBoundFromRecords(t *testing.T) {
	pl := newPipeline(quickOpts(4, 64))
	queues := func(costs ...float64) [][]work.Task {
		q := make([][]work.Task, 4)
		for i, c := range costs {
			q[i%4] = append(q[i%4], record(work.Task{ID: i}, c))
		}
		return q
	}
	for _, tc := range []struct {
		costs []float64
		want  float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1}, 2},
		{[]float64{1, 1, 9, 1}, 9},
	} {
		pl.replay(phaseSpec{name: "p", queues: queues(tc.costs...)})
		if got := pl.reports[len(pl.reports)-1].Bound; got != tc.want {
			t.Errorf("costs %v: bound %v, want %v", tc.costs, got, tc.want)
		}
	}
}

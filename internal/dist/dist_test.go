package dist

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// fixedTasks builds one queue per processor from cost rows.
func fixedTasks(rows [][]float64) [][]work.Task {
	queues := make([][]work.Task, len(rows))
	id := 0
	for p, costs := range rows {
		for _, c := range costs {
			c := c
			queues[p] = append(queues[p], work.Task{
				ID:  id,
				Run: func() float64 { return c },
			})
			id++
		}
	}
	return queues
}

// executedBy maps each recorded task to the processor that ran it,
// failing on a task recorded twice.
func executedBy(t *testing.T, rep sched.Report) map[int]int {
	t.Helper()
	by := make(map[int]int, len(rep.Tasks))
	for _, r := range rep.Tasks {
		if _, dup := by[r.ID]; dup {
			t.Fatalf("task %d recorded twice", r.ID)
		}
		by[r.ID] = r.Worker
	}
	return by
}

func testProfile() work.MachineProfile {
	return work.MachineProfile{
		Name: "test", CoresPerNode: 4,
		LatencyLocal: 1, LatencyRemote: 5,
		StealHandling: 1, MigrateFixed: 1, MigratePerVertex: 1,
		LocalAccess: 1, RemoteAccess: 5, BarrierPerLog: 1,
	}
}

func TestNoStealingSequential(t *testing.T) {
	queues := fixedTasks([][]float64{{10, 10}, {1}})
	rep := Run(sched.Config{Workers: 2, Profile: testProfile()}, queues)
	if rep.Makespan != 20 {
		t.Fatalf("makespan = %v, want 20", rep.Makespan)
	}
	if rep.Workers[0].Busy != 20 || rep.Workers[1].Busy != 1 {
		t.Fatalf("busy = %+v", rep.Workers)
	}
	if idle := rep.Makespan - rep.Workers[1].Busy; idle != 19 {
		t.Fatalf("idle = %v, want 19", idle)
	}
	if rep.Workers[0].TasksLocal != 2 || rep.Workers[0].TasksStolen != 0 {
		t.Fatalf("task counts = %+v", rep.Workers[0])
	}
	if rep.TotalTasks != 3 {
		t.Fatalf("TotalTasks = %d", rep.TotalTasks)
	}
}

func TestStealingReducesMakespan(t *testing.T) {
	// Proc 0 has lots of small tasks; proc 1 has nothing.
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 10
	}
	queues := [][]float64{costs, {}}
	noLB := Run(sched.Config{Workers: 2, Profile: testProfile()}, fixedTasks(queues))
	ws := Run(sched.Config{Workers: 2, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1}, fixedTasks(queues))
	if noLB.Makespan != 400 {
		t.Fatalf("noLB makespan = %v", noLB.Makespan)
	}
	if ws.Makespan >= noLB.Makespan*0.75 {
		t.Fatalf("stealing makespan %v should be well below %v", ws.Makespan, noLB.Makespan)
	}
	if ws.Workers[1].TasksStolen == 0 {
		t.Fatal("proc 1 should have executed stolen tasks")
	}
	if ws.Workers[0].TasksLost == 0 {
		t.Fatal("proc 0 should have lost tasks")
	}
}

func TestAllTasksExecutedExactlyOnce(t *testing.T) {
	rows := [][]float64{{5, 7, 3, 9, 2}, {}, {1}, {}}
	rep := Run(sched.Config{Workers: 4, Profile: testProfile(), Policy: steal.Hybrid{K: 2}, Seed: 7}, fixedTasks(rows))
	if by := executedBy(t, rep); len(by) != 6 {
		t.Fatalf("executed %d tasks, want 6", len(by))
	}
	total := 0
	for _, ps := range rep.Workers {
		total += ps.TasksLocal + ps.TasksStolen
	}
	if total != 6 {
		t.Fatalf("task count sum = %d", total)
	}
	// Conservation: busy sum equals cost sum.
	var busySum, costSum float64
	for _, ps := range rep.Workers {
		busySum += ps.Busy
	}
	for _, r := range rep.Tasks {
		costSum += r.Cost
	}
	if math.Abs(busySum-costSum) > 1e-9 {
		t.Fatalf("busy %v != cost %v", busySum, costSum)
	}
}

func TestDeterminism(t *testing.T) {
	rows := [][]float64{{5, 7, 3}, {2}, {9, 9, 9, 9}, {}}
	cfg := sched.Config{Workers: 4, Profile: testProfile(), Policy: steal.RandK{K: 2}, Seed: 99}
	a := Run(cfg, fixedTasks(rows))
	b := Run(cfg, fixedTasks(rows))
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	for p := range a.Workers {
		if a.Workers[p] != b.Workers[p] {
			t.Fatalf("proc %d stats differ", p)
		}
	}
	// Records come in virtual-time execution order, so equal slices mean
	// the same tasks ran on the same processors in the same order.
	if !slices.Equal(a.Tasks, b.Tasks) {
		t.Fatalf("task records differ:\n%+v\n%+v", a.Tasks, b.Tasks)
	}
}

func TestStealFromBack(t *testing.T) {
	// Proc 0: tasks 0..3 in order. A thief must receive the back half
	// (ids 2,3), leaving the front for the owner.
	rows := [][]float64{{100, 100, 100, 100}, {}}
	rep := Run(sched.Config{Workers: 2, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1, StealChunk: 0.5}, fixedTasks(rows))
	by := executedBy(t, rep)
	if by[0] != 0 || by[1] != 0 {
		t.Fatalf("front tasks should stay with owner: %v", by)
	}
	if by[2] != 1 && by[3] != 1 {
		t.Fatalf("back tasks should migrate: %v", by)
	}
}

func TestNoStealWhenBalanced(t *testing.T) {
	// Perfectly balanced queues: stealing should not help nor hurt much
	// (paper's free environment shows no significant overhead).
	rows := [][]float64{{10, 10}, {10, 10}, {10, 10}, {10, 10}}
	noLB := Run(sched.Config{Workers: 4, Profile: testProfile()}, fixedTasks(rows))
	ws := Run(sched.Config{Workers: 4, Profile: testProfile(), Policy: steal.Diffusive{}, Seed: 3}, fixedTasks(rows))
	// Beyond the unavoidable termination-detection ring, stealing must add
	// no meaningful overhead to a balanced run.
	if ws.Makespan-ws.TerminationCost > noLB.Makespan*1.2 {
		t.Fatalf("stealing overhead too high: %v (term %v) vs %v",
			ws.Makespan, ws.TerminationCost, noLB.Makespan)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan can never beat total/P nor the largest task.
	rows := [][]float64{{50, 1, 1, 1, 1, 1, 1}, {}, {}, {}}
	rep := Run(sched.Config{Workers: 4, Profile: testProfile(), Policy: steal.Hybrid{K: 3}, Seed: 5}, fixedTasks(rows))
	if rep.Makespan < 50 {
		t.Fatalf("makespan %v below biggest task", rep.Makespan)
	}
	var total float64
	for _, r := range rep.Tasks {
		total += r.Cost
	}
	if rep.Makespan < total/4 {
		t.Fatalf("makespan %v below work bound %v", rep.Makespan, total/4)
	}
}

func TestSingleProcWithPolicy(t *testing.T) {
	rows := [][]float64{{3, 4}}
	rep := Run(sched.Config{Workers: 1, Profile: testProfile(), Policy: steal.RandK{K: 8}, Seed: 1}, fixedTasks(rows))
	if rep.Makespan != 7 {
		t.Fatalf("makespan = %v", rep.Makespan)
	}
}

func TestEmptySystem(t *testing.T) {
	rep := Run(sched.Config{Workers: 3, Profile: testProfile(), Policy: steal.Diffusive{}}, [][]work.Task{{}, {}, {}})
	if rep.Makespan != 0 || rep.TotalTasks != 0 {
		t.Fatalf("empty system: %+v", rep)
	}
}

func TestQueueMismatchReshards(t *testing.T) {
	// Regression: a queue count differing from Workers used to panic here
	// while the host executor silently re-sharded — both backends now take
	// the shared sched.Reshard round-robin path.
	rows := [][]float64{{3, 3, 3, 3, 3}} // one queue, five tasks, two workers
	rep := Run(sched.Config{Workers: 2, Profile: testProfile()}, fixedTasks(rows))
	if rep.TotalTasks != 5 {
		t.Fatalf("TotalTasks = %d, want 5", rep.TotalTasks)
	}
	by := executedBy(t, rep)
	if len(by) != 5 {
		t.Fatalf("%d tasks recorded, want 5", len(by))
	}
	// Round-robin re-shard: tasks 0,2,4 on worker 0; tasks 1,3 on worker 1.
	for id, want := range map[int]int{0: 0, 1: 1, 2: 0, 3: 1, 4: 0} {
		if got := by[id]; got != want {
			t.Errorf("task %d executed by %d, want %d (round-robin)", id, got, want)
		}
	}
}

func TestPanicsOnNonPositiveWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(sched.Config{Workers: 0, Profile: testProfile()}, nil)
}

func TestStealCountsConsistent(t *testing.T) {
	rows := [][]float64{{5, 5, 5, 5, 5, 5, 5, 5}, {}, {}, {}}
	rep := Run(sched.Config{Workers: 4, Profile: testProfile(), Policy: steal.RandK{K: 2}, Seed: 11}, fixedTasks(rows))
	for p, ps := range rep.Workers {
		if ps.StealsIssued < ps.StealsGranted+ps.StealsDenied {
			t.Fatalf("proc %d: issued %d < granted %d + denied %d",
				p, ps.StealsIssued, ps.StealsGranted, ps.StealsDenied)
		}
	}
	// A queued task may be re-stolen before it runs, so transfer events
	// (lost) can exceed stolen executions, but never the reverse.
	var lost, stolen int
	for _, ps := range rep.Workers {
		lost += ps.TasksLost
		stolen += ps.TasksStolen
	}
	if lost < stolen {
		t.Fatalf("tasks lost %d < tasks stolen %d", lost, stolen)
	}
	if stolen == 0 {
		t.Fatal("this workload must trigger stealing")
	}
}

func TestImbalanceDecaysWithMoreProcs(t *testing.T) {
	// Strong scaling: same workload, growing P. Stealing benefit must
	// decay as regions per processor shrink (paper Figs 5, 10).
	nTasks := 64
	makeRows := func(p int) [][]float64 {
		rows := make([][]float64, p)
		// All work concentrated on the first quarter of processors.
		for i := 0; i < nTasks; i++ {
			owner := i % (p / 4)
			rows[owner] = append(rows[owner], 10)
		}
		return rows
	}
	speedup := func(p int) float64 {
		rows := makeRows(p)
		noLB := Run(sched.Config{Workers: p, Profile: testProfile()}, fixedTasks(rows))
		ws := Run(sched.Config{Workers: p, Profile: testProfile(), Policy: steal.Hybrid{K: 4}, Seed: 2}, fixedTasks(rows))
		return noLB.Makespan / ws.Makespan
	}
	s8, s32 := speedup(8), speedup(32)
	if s8 <= 1.2 {
		t.Fatalf("speedup at 8 procs = %v, expected substantial", s8)
	}
	if s32 >= s8 {
		t.Fatalf("benefit should decay: s8=%v s32=%v", s8, s32)
	}
}

// A steal is priced like a migration of what the stolen task carries: on
// the same skewed workload, a grant whose task has Payload p lands exactly
// p·MigratePerVertex later than one whose task has Payload 0.
func TestStealPricedByPayload(t *testing.T) {
	prof := testProfile()
	prof.MigratePerVertex = 0.5
	grantAt := func(payload int) float64 {
		queues := fixedTasks([][]float64{{10, 10, 10, 10}, {}})
		for i := range queues[0] {
			queues[0][i].Payload = payload
		}
		at := -1.0
		Run(sched.Config{
			Workers: 2, Profile: prof, Policy: steal.RandK{K: 1}, Seed: 1, StealChunk: 0.25,
			Trace: func(e sched.TraceEvent) {
				if e.Kind == "steal-grant" && at < 0 {
					at = e.Time
				}
			},
		}, queues)
		if at < 0 {
			t.Fatalf("payload %d: no steal granted", payload)
		}
		return at
	}
	const p = 40
	if d, want := grantAt(p)-grantAt(0), p*prof.MigratePerVertex; d != want {
		t.Fatalf("payload %d delays the grant by %v, want %v", p, d, want)
	}
}

func TestTerminationDetectionCharged(t *testing.T) {
	rows := [][]float64{{5, 5}, {5, 5}}
	noLB := Run(sched.Config{Workers: 2, Profile: testProfile()}, fixedTasks(rows))
	if noLB.TerminationCost != 0 {
		t.Fatal("static runs need no termination detection")
	}
	ws := Run(sched.Config{Workers: 2, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1}, fixedTasks(rows))
	if ws.TerminationCost <= 0 {
		t.Fatal("stealing runs must pay termination detection")
	}
	if ws.Makespan < noLB.Makespan {
		t.Fatal("balanced workload: stealing cannot beat static here")
	}
	// Termination cost grows with P.
	ws8 := Run(sched.Config{Workers: 8, Profile: testProfile(), Policy: steal.RandK{K: 1}, Seed: 1},
		fixedTasks([][]float64{{5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}}))
	if ws8.TerminationCost <= ws.TerminationCost {
		t.Fatalf("termination cost should grow with P: %v vs %v", ws8.TerminationCost, ws.TerminationCost)
	}
}

func TestSimulatorInvariantsProperty(t *testing.T) {
	// For random workloads and policies, the simulation must satisfy:
	// every task executes exactly once; makespan >= max(total/P, max
	// task); busy time sums to total cost; stats are non-negative.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := 2 + r.Intn(10)
		rows := make([][]float64, p)
		total := 0.0
		maxTask := 0.0
		nTasks := 0
		for i := 0; i < p; i++ {
			for j := 0; j < r.Intn(12); j++ {
				c := 1 + r.Float64()*20
				rows[i] = append(rows[i], c)
				total += c
				if c > maxTask {
					maxTask = c
				}
				nTasks++
			}
		}
		policies := []steal.Policy{nil, steal.RandK{K: 2}, steal.Diffusive{}, steal.Hybrid{K: 3}}
		pol := policies[r.Intn(len(policies))]
		rep := Run(sched.Config{Workers: p, Profile: testProfile(), Policy: pol, Seed: seed}, fixedTasks(rows))
		if len(rep.Tasks) != nTasks {
			return false
		}
		if nTasks > 0 && rep.Makespan+1e-9 < maxTask {
			return false
		}
		if nTasks > 0 && rep.Makespan+1e-9 < total/float64(p) {
			return false
		}
		var busy float64
		count := 0
		for _, ps := range rep.Workers {
			if ps.Busy < 0 || rep.Makespan-ps.Busy < -1e-9 || ps.TasksLocal < 0 || ps.TasksStolen < 0 {
				return false
			}
			busy += ps.Busy
			count += ps.TasksLocal + ps.TasksStolen
		}
		if count != nTasks {
			return false
		}
		return math.Abs(busy-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

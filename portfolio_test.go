package parmp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parmp/internal/cspace"
)

// testPortfolioSetup returns a narrow-passage race small enough for CI:
// the walls environment's corner-to-corner query, PRM racers.
func testPortfolioSetup() (*Space, Config, Config, Options) {
	space := NewPointSpace(EnvironmentByName("walls"))
	start := V(0.05, 0.05, 0.05)
	goal := V(0.95, 0.95, 0.95)
	opts := Options{
		Procs:            4,
		Regions:          32,
		SamplesPerRegion: 8,
		Strategy:         Repartition,
		Seed:             3,
	}
	return space, start, goal, opts
}

// A portfolio's winner and published snapshot must be a pure function
// of the configuration: same base seed, same outcome, run after run.
func TestPortfolioDeterministicWinnerAndSnapshot(t *testing.T) {
	run := func() (int, int, string) {
		space, start, goal, opts := testPortfolioSetup()
		pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{
			Racers: 3, MaxWaves: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := pf.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		path, ok := pf.Snapshot().Query(start, goal, 8)
		if !ok {
			t.Fatal("winner snapshot does not answer the race query")
		}
		return rep.Winner, pf.Rounds(), fmt.Sprint(path)
	}
	w1, r1, p1 := run()
	w2, r2, p2 := run()
	if w1 != w2 || r1 != r2 || p1 != p2 {
		t.Fatalf("runs diverged: winner %d/%d rounds %d/%d pathEq=%v", w1, w2, r1, r2, p1 == p2)
	}
	if w1 < 0 {
		t.Fatal("race never decided")
	}
}

// Losers are cancelled (or simply stop being grown) without tearing
// committed state: every racer's engine still serves a coherent
// snapshot after the race, and the report stays consistent.
func TestPortfolioLosersUntorn(t *testing.T) {
	space, start, goal, opts := testPortfolioSetup()
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{
		Racers: 3, MaxWaves: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pf.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner < 0 || !rep.Racers[rep.Winner].Solved {
		t.Fatalf("winner %d not marked solved", rep.Winner)
	}
	if rep.WinnerSeed == opts.Seed {
		t.Fatal("winner seed must be derived, not the base seed")
	}
	for i, rr := range rep.Racers {
		if rr.Err != nil {
			t.Fatalf("racer %d failed: %v", i, rr.Err)
		}
		// Several racers may solve in the same wave; the winner must be
		// the lowest-indexed one of them.
		if rr.Solved && i < rep.Winner {
			t.Fatalf("racer %d solved but higher index %d won", i, rep.Winner)
		}
		// A cancelled (Stopped) racer committed nothing that wave; its
		// round count can be at most the wave count either way.
		if rr.Rounds > rep.Waves {
			t.Fatalf("racer %d committed %d rounds in %d waves", i, rr.Rounds, rep.Waves)
		}
		// Committed state is queryable (possibly a miss) — no torn
		// snapshot, no panic — and phase reports survived for obsv.
		if _, err := func() (ok bool, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("racer %d snapshot panicked: %v", i, r)
				}
			}()
			_, ok = pf.Snapshot().Query(start, goal, 8)
			return ok, nil
		}(); err != nil {
			t.Fatal(err)
		}
		if rr.Rounds > 0 && len(rr.PhaseReports) == 0 {
			t.Fatalf("racer %d grew %d rounds but retained no phase reports", i, rr.Rounds)
		}
	}
}

// Cancellation returns ErrStopped with the race intact, and the same
// portfolio resumes to a solution afterwards.
func TestPortfolioCancelAndResume(t *testing.T) {
	space, start, goal, opts := testPortfolioSetup()
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Racers: 2, MaxWaves: 64})
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pf.Solve(done); !errors.Is(err, ErrStopped) {
		t.Fatalf("cancelled Solve returned %v, want ErrStopped", err)
	}
	if pf.Rounds() != 0 {
		t.Fatalf("cancelled race published %d rounds, want 0", pf.Rounds())
	}
	if _, ok := pf.Snapshot().Query(start, goal, 8); ok {
		t.Fatal("empty snapshot answered the race query")
	}
	// Mid-race cancellation: cancel while waves are in flight, then
	// resume on a fresh context.
	mid, cancelMid := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelMid()
	_, err = pf.Solve(mid)
	if err != nil && !errors.Is(err, ErrStopped) {
		t.Fatalf("mid-race cancel returned %v", err)
	}
	rep, err := pf.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner < 0 {
		t.Fatal("resumed race never decided")
	}
	if _, ok := pf.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("resumed winner does not answer the race query")
	}
}

// After the race, Grow keeps growing the winner like a plain engine.
func TestPortfolioGrowsWinnerAfterRace(t *testing.T) {
	space, start, goal, opts := testPortfolioSetup()
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Racers: 2, MaxWaves: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := pf.Winner()
	for i := 0; i < 3; i++ {
		before, racerBefore := pf.Rounds(), pf.Report().Racers[w].Rounds
		if err := pf.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if pf.Rounds() != before+1 {
			t.Fatalf("post-race Grow: rounds %d -> %d, want +1", before, pf.Rounds())
		}
		// The winner's racer record counts every committed round.
		if got := pf.Report().Racers[w].Rounds; got != racerBefore+1 {
			t.Fatalf("post-race Grow %d: winner's racer Rounds %d -> %d, want +1", i, racerBefore, got)
		}
	}
	st := pf.Stats()
	if st.Winner < 0 || st.Racers != 2 {
		t.Fatalf("stats %+v after win", st)
	}
}

// MaxWaves bounds a hopeless race with ErrNoSolution, without tearing.
func TestPortfolioMaxWaves(t *testing.T) {
	// A goal inside an obstacle is unreachable; the engines still grow.
	space, start, _, opts := testPortfolioSetup()
	goal := V(0.25, 0.5, 0.5) // inside the first wall slab
	if space.Valid(goal, nil) {
		t.Skip("expected an in-collision goal for the hopeless race")
	}
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Racers: 2, MaxWaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pf.Solve(context.Background())
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	if rep.Winner != -1 || rep.Waves != 3 {
		t.Fatalf("report %+v, want undecided after 3 waves", rep)
	}
}

// Mixed planner families race side by side; tree racers root at start.
func TestPortfolioMixedPlanners(t *testing.T) {
	space, start, goal, opts := testPortfolioSetup()
	opts.NodesPerRegion = 8
	opts.Radius = 2 // cover the unit cube from any cone
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{
		Racers:   3,
		Planners: []string{"prm", "rrtconnect"},
		MaxWaves: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pf.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prm", "rrtconnect", "prm"}
	for i, rr := range rep.Racers {
		if rr.Planner != want[i] {
			t.Fatalf("racer %d planner %q, want %q", i, rr.Planner, want[i])
		}
	}
	if _, ok := pf.Snapshot().Query(start, goal, 8); !ok {
		t.Fatal("mixed-planner winner does not answer the race query")
	}
}

func TestPortfolioOptionValidation(t *testing.T) {
	space, start, goal, opts := testPortfolioSetup()
	if _, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Planners: []string{"dijkstra"}}); err == nil {
		t.Fatal("unknown planner accepted")
	}
	if _, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Restarts: "fibonacci"}); err == nil {
		t.Fatal("unknown restart schedule accepted")
	}
	if _, err := NewPortfolio(space, start[:1], goal, opts, PortfolioOptions{}); err == nil {
		t.Fatal("wrong-dimension start accepted")
	}
}

// Every snapshot the portfolio publishes carries a higher generation
// than the last — repairs before the race and the win included — so a
// cache keyed on it never serves a stale answer.
func TestPortfolioGenerationNeverDecreases(t *testing.T) {
	ctx := context.Background()
	space, start, goal, opts := testPortfolioSetup()
	opts.Seed = 4
	pf, err := NewPortfolio(space, start, goal, opts, PortfolioOptions{Racers: 4, MaxWaves: 64})
	if err != nil {
		t.Fatal(err)
	}
	gens := []uint64{pf.Snapshot().Generation()}
	for k := 0; k < 3; k++ {
		x := 0.1 * float64(k)
		box := NewBoxObstacle(V(x, 0, 0), V(x+0.02, 0.02, 0.02))
		if _, err := pf.ApplyDelta(ctx, AddObstacle{Obstacle: box}); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, pf.Snapshot().Generation())
	}
	if _, err := pf.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	gens = append(gens, pf.Snapshot().Generation())
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("published generations %v do not strictly increase", gens)
		}
	}
	if got := pf.Snapshot().Epoch(); got != 3 {
		t.Fatalf("winner epoch = %d, want 3", got)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1, 2, 1, 1, 2, 4}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	// Budgets are powers of two and the sequence repeats each completed
	// block; spot-check a deep index: luby(2^k - 1) = 2^(k-1).
	if got := luby(1<<10 - 1); got != 1<<9 {
		t.Fatalf("luby(2^10-1) = %d, want %d", got, 1<<9)
	}
}

func TestDeriveSeedDecorrelatedAndStable(t *testing.T) {
	seen := make(map[uint64]string)
	for racer := 0; racer < 8; racer++ {
		for restart := 0; restart < 8; restart++ {
			s := deriveSeed(42, racer, restart)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and %s both derive %d", racer, restart, prev, s)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", racer, restart)
			if again := deriveSeed(42, racer, restart); again != s {
				t.Fatalf("deriveSeed not stable for (%d,%d)", racer, restart)
			}
		}
	}
	if deriveSeed(1, 0, 0) == deriveSeed(2, 0, 0) {
		t.Fatal("different base seeds derive the same racer seed")
	}
}

// fakeSpace, fakeStart and fakeGoal frame the fakes' race query.
var fakeSpace, fakeStart, fakeGoal, _ = testPortfolioSetup()

// fakeEngine grows instantly (or slowly, to provoke cancellation) and
// solves after a preset number of committed rounds.
type fakeEngine struct {
	rounds     int
	solveAfter int // committed rounds needed to solve; < 0 never solves
	growDelay  time.Duration
	stopped    bool
}

func (f *fakeEngine) Grow(ctx context.Context) error {
	if f.growDelay > 0 {
		select {
		case <-time.After(f.growDelay):
		case <-ctx.Done():
			f.stopped = true
			return errors.New("stopped")
		}
	} else if ctx.Err() != nil {
		f.stopped = true
		return errors.New("stopped")
	}
	f.rounds++
	return nil
}

// Snapshot answers the race query once the fake has solved.
func (f *fakeEngine) Snapshot() *Snapshot {
	return &Snapshot{space: fakeSpace, ix: fakeIndex(f.solveAfter >= 0 && f.rounds >= f.solveAfter)}
}

func (f *fakeEngine) ApplyDelta(context.Context, ...Mutation) (RepairStats, error) {
	return RepairStats{}, nil
}

// fakeIndex answers every query with its own verdict.
type fakeIndex bool

func (ix fakeIndex) NumNodes() int { return 0 }

func (ix fakeIndex) Query(*Space, Config, Config, int, *cspace.Counters) ([]Config, bool) {
	return nil, bool(ix)
}

// fakeRacer builds one racer's contestant for a restart.
type fakeRacer func(restart int) (contestant, error)

// mkRacer builds fakes whose solve round depends on the restart index:
// solveAfter[restart] (last entry repeats). delay slows every Grow.
func mkRacer(track *[]*fakeEngine, delay time.Duration, solveAfter ...int) fakeRacer {
	return func(restart int) (contestant, error) {
		sa := solveAfter[len(solveAfter)-1]
		if restart < len(solveAfter) {
			sa = solveAfter[restart]
		}
		f := &fakeEngine{solveAfter: sa, growDelay: delay}
		*track = append(*track, f)
		return f, nil
	}
}

// fakeRace is a portfolio whose racer i is racers[i], on Luby budgets of
// unit rounds (a non-positive unit never restarts). Unlike NewPortfolio
// it builds no engine before the first wave.
func fakeRace(unit int, racers ...fakeRacer) *Portfolio {
	p := &Portfolio{
		start:  fakeStart,
		goal:   fakeGoal,
		po:     PortfolioOptions{Racers: len(racers), UnitRounds: unit},
		racers: make([]racer, len(racers)),
	}
	p.build = func(i, restart int) (contestant, uint64, error) {
		c, err := racers[i](restart)
		return c, 0, err
	}
	p.stats.Store(&PortfolioStats{Racers: len(racers), Winner: -1})
	return p
}

// raceToWin grows p until a racer wins.
func raceToWin(t *testing.T, p *Portfolio) {
	t.Helper()
	for p.Winner() < 0 {
		if err := p.Grow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRaceLowestIndexWinsDeterministically(t *testing.T) {
	// Racer 1 solves in round 2; racer 0 solves in round 3. Racer 0 must
	// not win, and repeated runs must agree.
	for trial := 0; trial < 20; trial++ {
		var i0, i1 []*fakeEngine
		p := fakeRace(100, mkRacer(&i0, 0, 3), mkRacer(&i1, 0, 2))
		raceToWin(t, p)
		if p.Winner() != 1 {
			t.Fatalf("trial %d: winner %d, want 1", trial, p.Winner())
		}
		if w := p.Stats().Waves; w != 2 {
			t.Fatalf("trial %d: %d waves, want 2", trial, w)
		}
	}
}

func TestRaceSameWaveTieBreaksByIndex(t *testing.T) {
	// Both solve in wave 1, but racer 1 is much faster in wall clock and
	// cancels everything above it — never racer 0, which must still win.
	for trial := 0; trial < 10; trial++ {
		var i0, i1, i2 []*fakeEngine
		p := fakeRace(100,
			mkRacer(&i0, 3*time.Millisecond, 1),
			mkRacer(&i1, 0, 1),
			mkRacer(&i2, 20*time.Millisecond, 1),
		)
		if err := p.Grow(context.Background()); err != nil || p.Winner() < 0 {
			t.Fatalf("trial %d: winner=%d err=%v", trial, p.Winner(), err)
		}
		if p.Winner() != 0 {
			t.Fatalf("trial %d: winner %d, want 0 (lowest solved index)", trial, p.Winner())
		}
		// The slow racer above the solvers must have been cancelled
		// mid-round: observed stopped with no committed round.
		if r := p.racers[2]; !r.stopped || r.rounds != 0 {
			t.Fatalf("trial %d: racer 2 state %+v, want stopped with 0 rounds", trial, r)
		}
	}
}

func TestRaceLubyRestartLifecycle(t *testing.T) {
	// A racer that never solves on restarts 0..2 and solves instantly on
	// restart 3 must walk the Luby budgets 1, 1, 2 (unit 1) before its
	// fourth engine wins in the next wave: waves = 1+1+2+1.
	var insts []*fakeEngine
	p := fakeRace(1, mkRacer(&insts, 0, -1, -1, -1, 1))
	raceToWin(t, p)
	st := p.Stats()
	if got, want := st.Waves, 5; got != want {
		t.Fatalf("waves = %d, want %d (Luby budgets 1,1,2 then solve)", got, want)
	}
	if st.Restarts != 3 {
		t.Fatalf("restarts = %d, want 3", st.Restarts)
	}
	if len(insts) != 4 {
		t.Fatalf("built %d engines, want 4", len(insts))
	}
	for i, rounds := range []int{1, 1, 2, 1} {
		if insts[i].rounds != rounds {
			t.Fatalf("engine %d grew %d rounds, want %d", i, insts[i].rounds, rounds)
		}
	}
}

func TestRaceNoRestartsWithNonPositiveUnit(t *testing.T) {
	var insts []*fakeEngine
	p := fakeRace(0, mkRacer(&insts, 0, 4))
	raceToWin(t, p)
	if len(insts) != 1 || p.Stats().Restarts != 0 {
		t.Fatalf("unit 0 must never restart: %d engines, %d restarts", len(insts), p.Stats().Restarts)
	}
	if insts[0].rounds != 4 {
		t.Fatalf("engine grew %d rounds, want 4", insts[0].rounds)
	}
}

func TestRaceCancelAndResume(t *testing.T) {
	var insts []*fakeEngine
	p := fakeRace(100, mkRacer(&insts, 5*time.Millisecond, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Grow(ctx); p.Winner() >= 0 || err == nil {
		t.Fatalf("cancelled wave: winner=%d err=%v", p.Winner(), err)
	}
	// Committed state is intact and the race resumes to the same winner.
	raceToWin(t, p)
	if p.Winner() != 0 {
		t.Fatalf("winner %d after resume, want 0", p.Winner())
	}
}

func TestRaceAllRacersFailed(t *testing.T) {
	boom := func(int) (contestant, error) { return nil, errors.New("boom") }
	p := fakeRace(1, boom, boom)
	if err := p.Grow(context.Background()); !errors.Is(err, errAllRacersFailed) {
		t.Fatalf("err = %v, want errAllRacersFailed", err)
	}
}

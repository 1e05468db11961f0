package parmp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"parmp/internal/core"
	"parmp/internal/rng"
)

// PhaseReport is one phase's scheduler execution profile; see
// core.PhaseReport. Portfolio reports retain every racer's phase reports
// so load-balance analysis (internal/obsv) covers losers too.
type PhaseReport = core.PhaseReport

// ErrNoSolution is returned by Portfolio.Solve when MaxWaves elapse
// without any racer solving the race query. The portfolio is not torn:
// Solve (or Grow) can be called again to keep racing.
var ErrNoSolution = errors.New("parmp: portfolio found no solution within MaxWaves")

// PortfolioOptions configures a restart-portfolio race on top of a base
// Options value. The zero value is usable: 4 racers, the base planner
// list defaulting to PRM, a Luby restart schedule with unit 1.
type PortfolioOptions struct {
	// Racers is the number of concurrent contestants. Default 4.
	Racers int
	// Planners assigns planner families to racers, cycled ("prm",
	// "rrt", "rrtconnect"); racer i runs Planners[i % len]. Default
	// {"prm"}. Tree planners root at the race's start configuration and,
	// like every NewEngineByName engine, reach the environment diagonal
	// when the base Options leave Radius zero.
	Planners []string
	// Restarts selects the restart schedule: "luby" (default) restarts
	// a racer with a fresh derived seed whenever its Luby round budget
	// expires; "none" races the initial configurations only.
	Restarts string
	// UnitRounds scales Luby budgets into growth rounds (budget =
	// Luby(restart+1) × UnitRounds). Default 1.
	UnitRounds int
	// MaxWaves bounds Solve: after this many waves without a solution
	// it returns ErrNoSolution. 0 means race until the context says
	// otherwise.
	MaxWaves int
}

// raceAttachK is the attachment count used to test the race query against
// PRM snapshots.
const raceAttachK = 8

// withDefaults fills zero-valued fields and validates names and sizes.
func (po PortfolioOptions) withDefaults() (PortfolioOptions, error) {
	for _, f := range []struct {
		name string
		n    int
	}{{"Racers", po.Racers}, {"UnitRounds", po.UnitRounds}, {"MaxWaves", po.MaxWaves}} {
		if f.n < 0 {
			return po, fmt.Errorf("parmp: PortfolioOptions.%s must be >= 0, got %d", f.name, f.n)
		}
	}
	if po.Racers == 0 {
		po.Racers = 4
	}
	if len(po.Planners) == 0 {
		po.Planners = []string{"prm"}
	}
	for _, pl := range po.Planners {
		if !slices.Contains(PlannerNames(), pl) {
			return po, fmt.Errorf("parmp: unknown portfolio planner %q (want %s)",
				pl, strings.Join(PlannerNames(), ", "))
		}
	}
	switch po.Restarts {
	case "":
		po.Restarts = "luby"
	case "luby", "none":
	default:
		return po, fmt.Errorf("parmp: unknown restart schedule %q (want luby or none)", po.Restarts)
	}
	if po.UnitRounds == 0 {
		po.UnitRounds = 1
	}
	return po, nil
}

// Portfolio is a restart-portfolio meta-planner: it races Racers engine
// configurations — derived seeds, optionally mixed planner families —
// to the first one whose committed snapshot solves the (start, goal)
// race query, restarting unlucky racers on a Luby schedule. Planner
// runtimes are heavy-tailed, so the portfolio's time-to-first-solution
// concentrates near the luckiest contestant's: this is the service-tier
// answer to p99/p999 solve time, not just a benchmark trick.
//
// A Portfolio serves exactly like an Engine: Snapshot returns the
// latest atomically published immutable snapshot (empty until the race
// is won, then the winner's), so Snapshot.Query/QueryBatch work
// unchanged, concurrently with racing. Every published snapshot carries
// the portfolio's own generation, strictly increasing across growth,
// the win and repairs. Growth is serialized internally; losers are
// cancelled through the engines' cooperative-cancellation path and
// never tear committed state.
//
// The race runs in lockstep waves: every live racer grows one round
// concurrently, then a barrier arbitrates, and the lowest-indexed racer
// whose committed round solves the query wins. A solver cancels every
// higher-indexed racer mid-round (they lose any same-wave tie) and never
// a lower one, so an uninterrupted race's winner and published snapshots
// are a pure function of (space, query, base options, portfolio
// options), never of the wall clock.
type Portfolio struct {
	space       *Space
	start, goal Config
	base        Options
	po          PortfolioOptions
	// build constructs racer i's engine for a restart and returns it with
	// its derived seed.
	build func(i, restart int) (contestant, uint64, error)

	mu     sync.Mutex // serializes Grow/Solve/ApplyDelta; guards the fields below
	racers []racer
	gen    uint64 // snapshots published so far

	snap atomic.Pointer[Snapshot]
	// stats is the race's progress (waves, restarts, winner), replaced
	// under mu on every change and readable while a wave is in flight.
	stats atomic.Pointer[PortfolioStats]
}

// contestant is a racer's engine as the race drives it; *Engine is one.
type contestant interface {
	Grow(ctx context.Context) error
	Snapshot() *Snapshot
	ApplyDelta(ctx context.Context, muts ...Mutation) (RepairStats, error)
}

// racer is one contestant's state, updated by waves.
type racer struct {
	eng     contestant // current engine; nil before the first build
	seed    uint64     // eng's derived seed
	restart int        // completed restarts (0 = still on the first engine)
	round   int        // committed rounds within the current budget
	rounds  int        // committed rounds across all restarts
	// budget is the current restart's round allowance (Luby value ×
	// UnitRounds); 0 never restarts.
	budget int
	// due reports that the budget ran out: eng is kept for Report but is
	// no contestant, and the next wave rebuilds the racer.
	due bool
	// stopped reports that the latest wave round was cancelled mid-flight
	// by arbitration; the engine's committed state is untouched.
	stopped bool
	solved  bool  // the latest committed round answers the race query
	err     error // terminal build/grow failure; the racer is out
}

// errAllRacersFailed reports that every contestant hit a terminal
// build/grow error, so no wave can make progress.
var errAllRacersFailed = errors.New("parmp: every portfolio racer failed")

// NewPortfolio creates a portfolio racing to solve the (start, goal)
// query in space. base supplies every racer's engine options; racer
// seeds are derived deterministically from base.Seed (racer 0's restart
// 0 never equals the base seed itself, so a portfolio of 1 still races
// a well-defined configuration). The initial snapshot is valid and
// empty — every query misses until the race is won.
func NewPortfolio(space *Space, start, goal Config, base Options, po PortfolioOptions) (*Portfolio, error) {
	po, err := po.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(start) != space.Dim() || len(goal) != space.Dim() {
		return nil, fmt.Errorf("parmp: race query is %dD/%dD, space is %dD", len(start), len(goal), space.Dim())
	}
	p := &Portfolio{
		space:  space,
		start:  start.Clone(),
		goal:   goal.Clone(),
		base:   base,
		po:     po,
		racers: make([]racer, po.Racers),
	}
	p.build = p.buildEngine
	p.stats.Store(&PortfolioStats{Racers: po.Racers, Winner: -1})
	// Build racer 0's first engine now: it validates the shared
	// configuration up front and donates the initial empty snapshot.
	p.ready(0)
	if err := p.racers[0].err; err != nil {
		return nil, err
	}
	p.publish(*p.racers[0].eng.Snapshot())
	return p, nil
}

// buildEngine constructs racer i's engine for the given restart with its
// deterministically derived seed.
func (p *Portfolio) buildEngine(i, restart int) (contestant, uint64, error) {
	seed := deriveSeed(p.base.Seed, i, restart)
	opts := p.base
	opts.Seed = seed
	eng, err := NewEngineByName(p.po.Planners[i%len(p.po.Planners)], p.space, p.start, p.goal, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("parmp: portfolio racer %d restart %d: %w", i, restart, err)
	}
	return eng, seed, nil
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... Restarting with
// budgets proportional to it is within a log factor of the optimal
// restart strategy for any (unknown) runtime distribution.
func luby(i int) int {
	if i < 1 {
		panic(fmt.Sprintf("parmp: Luby index %d < 1", i))
	}
	for k := 1; ; k++ {
		if i == 1<<k-1 {
			return 1 << (k - 1)
		}
		if i < 1<<k-1 {
			return luby(i - (1<<(k-1) - 1))
		}
	}
}

// deriveSeed maps (base seed, racer, restart) onto a decorrelated engine
// seed, so a portfolio's entire seed tree is a pure function of the base
// seed: racer 0 restart 0 always gets the same seed, across runs and
// across hosts.
func deriveSeed(base uint64, racer, restart int) uint64 {
	return rng.Derive(rng.Derive(base, 0xb0a7f0110+uint64(racer)).Uint64(), uint64(restart)).Uint64()
}

// ready (re)builds racer i's engine when it has none or its budget ran
// out, with a fresh Luby budget; a build failure takes the racer out.
func (p *Portfolio) ready(i int) {
	r := &p.racers[i]
	if r.err != nil || (r.eng != nil && !r.due) {
		return
	}
	eng, seed, err := p.build(i, r.restart)
	if err != nil {
		r.err = err
		return
	}
	r.eng, r.seed, r.due, r.round, r.budget = eng, seed, false, 0, 0
	if p.po.Restarts != "none" {
		r.budget = luby(r.restart+1) * p.po.UnitRounds
	}
}

// publish installs s stamped with the portfolio's next generation.
// Called with mu held (or before the portfolio escapes its constructor).
func (p *Portfolio) publish(s Snapshot) {
	p.gen++
	s.gen = p.gen
	p.snap.Store(&s)
}

// Grow advances the portfolio by one unit of work and publishes any new
// snapshot: before the race is decided, one lockstep wave (every racer
// grows one round, losers' budgets tick, Luby restarts fire); after,
// one ordinary growth round of the winning engine. Cancellation is
// cooperative exactly as in Engine.Grow — ErrStopped comes back with
// all committed state intact, and the race resumes on the next call.
// With MaxWaves set, an undecided race past that many waves returns
// ErrNoSolution instead of racing further, so callers driving Grow in a
// loop (the serving tier's growLoop) terminate on unsolvable queries.
func (p *Portfolio) Grow(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats.Load()
	if st.Winner >= 0 {
		r := &p.racers[st.Winner]
		if err := r.eng.Grow(ctx); err != nil {
			return err
		}
		r.rounds++
		p.publish(*r.eng.Snapshot())
		return nil
	}
	if p.po.MaxWaves > 0 && st.Waves >= p.po.MaxWaves {
		return ErrNoSolution
	}
	if err := p.wave(ctx); err != nil {
		if ctx.Err() != nil {
			return ErrStopped
		}
		return err
	}
	return nil
}

// wave runs one lockstep wave of the undecided race: each live racer
// (re)builds its engine if needed and grows one round, all concurrently;
// the barrier then arbitrates, publishes a winner's snapshot, or marks
// the racers whose budget ran out for a Luby restart. Cancellation of
// ctx stops every in-flight round cooperatively and returns ctx.Err()
// with all committed state intact. Called with mu held.
func (p *Portfolio) wave(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	live := 0
	for i := range p.racers {
		p.ready(i)
		if p.racers[i].err == nil {
			live++
		}
	}
	if live == 0 {
		return errAllRacersFailed
	}

	// One cancellable context per racer: a solver cancels every
	// higher-indexed racer, never a lower one, so the set of completed
	// rounds below the eventual winner — and with it the arbitration
	// outcome — is identical in every execution.
	ctxs := make([]context.Context, len(p.racers))
	cancels := make([]context.CancelFunc, len(p.racers))
	for i := range p.racers {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
	}
	var wg sync.WaitGroup
	for i := range p.racers {
		r := &p.racers[i]
		if r.err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.eng.Grow(ctxs[i]); err != nil {
				if ctxs[i].Err() != nil {
					r.stopped = true // cancelled mid-round; nothing committed
				} else {
					r.err = err
				}
				return
			}
			r.stopped = false
			r.round++
			r.rounds++
			if _, ok := r.eng.Snapshot().Query(p.start, p.goal, raceAttachK); ok {
				r.solved = true
				for _, cancel := range cancels[i+1:] {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	st := *p.stats.Load()
	st.Waves++
	for i := range p.racers {
		if p.racers[i].solved {
			st.Winner = i
			break
		}
	}
	if st.Winner < 0 && ctx.Err() == nil {
		// Budget exhausted without a solution: the racer restarts on a
		// fresh derived seed when the next wave rebuilds it.
		for i := range p.racers {
			if r := &p.racers[i]; r.err == nil && r.budget > 0 && r.round >= r.budget {
				r.due = true
				r.restart++
				st.Restarts++
			}
		}
	}
	p.stats.Store(&st)
	if st.Winner >= 0 {
		p.publish(*p.racers[st.Winner].eng.Snapshot())
		return nil
	}
	return ctx.Err()
}

// Solve races until the first solution and returns the final report.
// On cancellation it returns ErrStopped (with the partial report); with
// MaxWaves set, ErrNoSolution after that many fruitless waves. In both
// cases committed state is intact and Solve can be called again.
func (p *Portfolio) Solve(ctx context.Context) (*PortfolioReport, error) {
	for p.Winner() < 0 {
		if err := p.Grow(ctx); err != nil {
			return p.Report(), err
		}
	}
	return p.Report(), nil
}

// Winner returns the winning racer's index, or -1 while the race is
// undecided. Safe to call concurrently with Grow.
func (p *Portfolio) Winner() int { return p.stats.Load().Winner }

// Snapshot returns the latest published snapshot: valid and empty until
// the race is won, then the winner's latest committed state, at the
// portfolio's own generation and world epoch. Immutable and safe for
// concurrent use, exactly like Engine.Snapshot.
func (p *Portfolio) Snapshot() *Snapshot { return p.snap.Load() }

// Rounds returns the published snapshot's committed round count (the
// winner's rounds once the race is decided, 0 before).
func (p *Portfolio) Rounds() int { return p.Snapshot().Rounds() }

// PortfolioStats is a lock-free progress snapshot, readable while a
// wave is in flight (the serving tier's stats endpoint polls it).
type PortfolioStats struct {
	Racers   int
	Waves    int
	Restarts int
	Winner   int // -1 until decided
}

// Stats reports the race's progress without blocking on growth.
func (p *Portfolio) Stats() PortfolioStats { return *p.stats.Load() }

// RacerReport is one contestant's final accounting.
type RacerReport struct {
	Planner string
	// Seed is the racer's current (last) derived engine seed.
	Seed uint64
	// Restarts counts completed Luby restarts.
	Restarts int
	// Rounds is the racer's total committed growth rounds across all
	// its restarts.
	Rounds int
	// Stopped reports the racer's last round was cancelled mid-flight
	// by arbitration (its engine's committed state is untorn).
	Stopped bool
	// Solved marks the winner.
	Solved bool
	// Err is a terminal build/grow failure, if any.
	Err error
	// PhaseReports are the racer's last engine's committed per-phase
	// scheduler reports, for load-balance analysis via internal/obsv.
	PhaseReports []PhaseReport
}

// PortfolioReport is the race's final (or, mid-race, partial)
// accounting: who won, how much restart work the schedule spent, and
// per-racer detail.
type PortfolioReport struct {
	// Winner is the winning racer index, -1 while undecided.
	Winner        int
	WinnerPlanner string
	WinnerSeed    uint64
	// Waves is the number of lockstep rounds raced; Restarts the total
	// Luby restarts across racers.
	Waves    int
	Restarts int
	Racers   []RacerReport
}

// Report assembles the race accounting. It blocks while a wave is in
// flight (use Stats for a lock-free view).
func (p *Portfolio) Report() *PortfolioReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats.Load()
	rep := &PortfolioReport{
		Winner:   st.Winner,
		Waves:    st.Waves,
		Restarts: st.Restarts,
		Racers:   make([]RacerReport, len(p.racers)),
	}
	for i, r := range p.racers {
		rr := RacerReport{
			Planner:  p.po.Planners[i%len(p.po.Planners)],
			Seed:     r.seed,
			Restarts: r.restart,
			Rounds:   r.rounds,
			Stopped:  r.stopped,
			Solved:   r.solved,
			Err:      r.err,
		}
		if r.eng != nil {
			rr.PhaseReports = r.eng.Snapshot().stats.PhaseReports
		}
		rep.Racers[i] = rr
	}
	if w := st.Winner; w >= 0 {
		rep.WinnerPlanner = rep.Racers[w].Planner
		rep.WinnerSeed = rep.Racers[w].Seed
	}
	return rep
}

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
	"parmp/internal/portfolio"
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

// withDefaults fills unset fields and validates names.
func (po PortfolioOptions) withDefaults() (PortfolioOptions, error) {
	if po.Racers <= 0 {
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
	if po.UnitRounds <= 0 {
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
// unchanged, concurrently with racing. Growth is serialized internally;
// losers are cancelled through the engines' cooperative-cancellation
// path and never tear committed state.
//
// Determinism: an uninterrupted race's winner and published snapshots
// are a pure function of (space, query, base options, portfolio
// options) — arbitration runs in lockstep waves with ties broken by
// racer index, never by wall clock.
type Portfolio struct {
	space       *Space
	start, goal Config
	base        Options
	po          PortfolioOptions

	mu       sync.Mutex // serializes Grow/Solve; guards the fields below
	race     *portfolio.Race
	engines  []*Engine // current engine per racer (nil before first wave)
	seeds    []uint64  // current derived seed per racer
	prebuilt *Engine   // racer 0's restart-0 engine, built eagerly
	winner   *Engine

	snap atomic.Pointer[Snapshot]

	// Lock-free stats mirrors, readable while a wave is in flight.
	waves     atomic.Int64
	restarts  atomic.Int64
	winnerIdx atomic.Int64 // -1 until decided
}

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
		space:   space,
		start:   start.Clone(),
		goal:    goal.Clone(),
		base:    base,
		po:      po,
		engines: make([]*Engine, po.Racers),
		seeds:   make([]uint64, po.Racers),
	}
	p.winnerIdx.Store(-1)
	// Build racer 0's first engine eagerly: it validates the shared
	// configuration up front and donates the initial empty snapshot.
	eng0, seed0, err := p.buildEngine(0, 0)
	if err != nil {
		return nil, err
	}
	p.prebuilt = eng0
	p.seeds[0] = seed0
	p.snap.Store(eng0.Snapshot())

	racers := make([]portfolio.Racer, po.Racers)
	for i := range racers {
		i := i
		racers[i] = portfolio.Racer{Build: func(restart int) (portfolio.Instance, error) {
			eng := p.prebuilt
			seed := p.seeds[0]
			if i == 0 && restart == 0 && eng != nil {
				p.prebuilt = nil
			} else {
				var err error
				eng, seed, err = p.buildEngine(i, restart)
				if err != nil {
					return nil, err
				}
			}
			p.engines[i], p.seeds[i] = eng, seed
			return &racerInstance{eng: eng, pf: p}, nil
		}}
	}
	unit := po.UnitRounds
	if po.Restarts == "none" {
		unit = 0
	}
	p.race = portfolio.New(racers, unit)
	return p, nil
}

// buildEngine constructs racer's engine for the given restart with its
// deterministically derived seed.
func (p *Portfolio) buildEngine(racer, restart int) (*Engine, uint64, error) {
	seed := portfolio.DeriveSeed(p.base.Seed, racer, restart)
	opts := p.base
	opts.Seed = seed
	eng, err := NewEngineByName(p.po.Planners[racer%len(p.po.Planners)], p.space, p.start, p.goal, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("parmp: portfolio racer %d restart %d: %w", racer, restart, err)
	}
	return eng, seed, nil
}

// racerInstance adapts an Engine onto the race's Instance contract.
type racerInstance struct {
	eng *Engine
	pf  *Portfolio
}

func (ri *racerInstance) Grow(ctx context.Context) error { return ri.eng.Grow(ctx) }

func (ri *racerInstance) Solved() bool {
	_, ok := ri.eng.Snapshot().Query(ri.pf.start, ri.pf.goal, raceAttachK)
	return ok
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
	if p.winner != nil {
		if err := p.winner.Grow(ctx); err != nil {
			return err
		}
		p.snap.Store(p.winner.Snapshot())
		return nil
	}
	if p.po.MaxWaves > 0 && p.race.Waves() >= p.po.MaxWaves {
		return ErrNoSolution
	}
	won, err := p.race.Wave(ctx)
	p.waves.Store(int64(p.race.Waves()))
	p.restarts.Store(int64(p.race.Restarts()))
	if err != nil {
		if ctx.Err() != nil {
			return ErrStopped
		}
		return err
	}
	if won {
		i := p.race.Winner()
		p.winner = p.engines[i]
		p.winnerIdx.Store(int64(i))
		p.snap.Store(p.winner.Snapshot())
	}
	return nil
}

// Solve races until the first solution and returns the final report.
// On cancellation it returns ErrStopped (with the partial report); with
// MaxWaves set, ErrNoSolution after that many fruitless waves. In both
// cases committed state is intact and Solve can be called again.
func (p *Portfolio) Solve(ctx context.Context) (*PortfolioReport, error) {
	for {
		if p.Winner() >= 0 {
			return p.Report(), nil
		}
		if p.po.MaxWaves > 0 && int(p.waves.Load()) >= p.po.MaxWaves {
			return p.Report(), ErrNoSolution
		}
		if err := p.Grow(ctx); err != nil {
			return p.Report(), err
		}
	}
}

// Winner returns the winning racer's index, or -1 while the race is
// undecided. Safe to call concurrently with Grow.
func (p *Portfolio) Winner() int { return int(p.winnerIdx.Load()) }

// Snapshot returns the latest published snapshot: valid and empty until
// the race is won, then the winner's latest committed state. Immutable
// and safe for concurrent use, exactly like Engine.Snapshot.
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
func (p *Portfolio) Stats() PortfolioStats {
	return PortfolioStats{
		Racers:   p.po.Racers,
		Waves:    int(p.waves.Load()),
		Restarts: int(p.restarts.Load()),
		Winner:   p.Winner(),
	}
}

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
	rep := &PortfolioReport{
		Winner:   -1,
		Waves:    p.race.Waves(),
		Restarts: p.race.Restarts(),
		Racers:   make([]RacerReport, p.po.Racers),
	}
	for i, st := range p.race.States() {
		rr := RacerReport{
			Planner:  p.po.Planners[i%len(p.po.Planners)],
			Seed:     p.seeds[i],
			Restarts: st.Restart,
			Rounds:   st.Rounds,
			Stopped:  st.Stopped,
			Solved:   st.Solved,
			Err:      st.Err,
		}
		if eng := p.engines[i]; eng != nil {
			rr.PhaseReports = eng.Snapshot().stats.PhaseReports
		}
		rep.Racers[i] = rr
	}
	if w := p.race.Winner(); w >= 0 {
		rep.Winner = w
		rep.WinnerPlanner = rep.Racers[w].Planner
		rep.WinnerSeed = rep.Racers[w].Seed
	}
	return rep
}

package parmp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/prm"
)

// ErrStopped is returned by Engine.Grow when the context is canceled
// before the round commits. The engine's committed state is untouched:
// the previous snapshot stays valid and Grow can be called again.
var ErrStopped = core.ErrStopped

// Engine is a resumable planner: it owns the space and options, grows
// its roadmap (or tree) incrementally — each Grow call is one pass
// through the phase pipeline, reusing the region graph and partition
// state — and serves queries concurrently through immutable snapshots
// published atomically after each round. PlanPRM, PlanRRT and
// PlanRRTConnect return an engine's snapshot after its first round.
//
// Grow is serialized internally; Snapshot (and every Snapshot method)
// is safe to call from any number of goroutines at any time, including
// while a Grow is in flight.
type Engine struct {
	space *Space

	mu  sync.Mutex // serializes growth
	gen uint64     // snapshots published so far (guarded by mu)
	pl  planner

	snap atomic.Pointer[Snapshot]
}

// planner is Engine's view of a core engine: grow it, repair it, and
// index its committed result for queries. The two implementations are
// what differs between a roadmap and a forest at this layer — the index
// type, and PRM's index-scoped incremental repair.
type planner interface {
	GrowRound(stop <-chan struct{}) error
	Rounds() int
	// index returns a snapshot holding the committed result and a query
	// index built from scratch.
	index() *Snapshot
	// repair applies delta, which mutates old's world into next, and
	// returns a snapshot holding the repaired result and its index.
	repair(old *Snapshot, next *Space, delta env.Delta, stop <-chan struct{}) (*Snapshot, RepairStats, error)
}

type prmPlanner struct{ *core.PRMEngine }

func (p prmPlanner) index() *Snapshot {
	res := p.Result()
	return &Snapshot{stats: &res.RunStats, prmRes: res, ix: prm.BuildIndex(res.Roadmap)}
}

func (p prmPlanner) repair(old *Snapshot, next *Space, delta env.Delta, stop <-chan struct{}) (*Snapshot, RepairStats, error) {
	// Scope the re-validation with a kd radius query over the committed
	// snapshot's index; AffectedVertices' nil ("nothing affected") must
	// not reach the core as nil ("scan everything").
	oldIx := old.ix.(*prm.Index)
	cand := oldIx.AffectedVertices(cspace.NewDeltaChecker(old.space, delta))
	if cand == nil {
		cand = []int{}
	}
	rep, err := p.ApplyDelta(next, delta, cand, stop)
	if err != nil {
		return nil, RepairStats{}, err
	}
	res := p.Result()
	s := &Snapshot{stats: &res.RunStats, prmRes: res, ix: oldIx}
	if rep.VertexRemap != nil {
		// Scoped index repair: only touched components relabel, and the kd
		// forest is the repaired roadmap's region trees.
		s.ix = prm.RepairIndex(oldIx, res.Roadmap, rep.VertexRemap, rep.TouchedVertices)
	}
	return s, rep.Stats, nil
}

type treePlanner struct{ *core.RRTEngine }

func (p treePlanner) index() *Snapshot {
	res := p.Result()
	return &Snapshot{stats: &res.RunStats, rrtRes: res, ix: core.BuildTreeIndex(res)}
}

func (p treePlanner) repair(_ *Snapshot, next *Space, delta env.Delta, stop <-chan struct{}) (*Snapshot, RepairStats, error) {
	st, err := p.ApplyDelta(next, delta, stop)
	if err != nil {
		return nil, RepairStats{}, err
	}
	return p.index(), st, nil
}

// NewEngine creates a PRM engine over space. The C-space is subdivided
// and partitioned immediately; no planning work happens until Grow.
// The initial snapshot is valid and empty (every query misses).
func NewEngine(space *Space, opts Options) (*Engine, error) {
	pe, err := core.NewPRMEngine(space, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(space, prmPlanner{pe}), nil
}

// NewRRTEngine creates an RRT engine rooted at root: snapshots answer
// goal queries with paths from root, and each Grow extends every
// region's branch. The initial snapshot is valid and empty.
func NewRRTEngine(space *Space, root Config, opts Options) (*Engine, error) {
	re, err := core.NewRRTEngine(space, root, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(space, treePlanner{re}), nil
}

// NewRRTConnectEngine creates an RRT-Connect engine rooted at root and
// aimed at goal: every region grows a pair of trees (root-side and
// goal-side) that greedily connect, and snapshots answer goal queries
// with paths from root through the merged branches. Steered spaces
// (Dubins) are rejected — RRT-Connect needs symmetric local motions.
// The initial snapshot is valid and empty.
func NewRRTConnectEngine(space *Space, root, goal Config, opts Options) (*Engine, error) {
	ce, err := core.NewRRTConnectEngine(space, root, goal, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(space, treePlanner{ce}), nil
}

// NewEngineByName creates the named planner's engine (see PlannerNames):
// "prm" ignores root and goal, "rrt" roots its tree at root, "rrtconnect"
// also aims it at goal. This is the one place a planner name becomes a
// constructor — the command-line tools, the serving tier and Portfolio
// racers all come through it — so it carries their shared default: a
// tree planner with opts.Radius zero reaches the length of the
// environment's bounds diagonal, which keeps a corner-to-corner query
// inside every cone.
func NewEngineByName(planner string, space *Space, root, goal Config, opts Options) (*Engine, error) {
	if planner != "prm" && opts.Radius == 0 {
		opts.Radius = space.Env.Bounds.Extent().Norm()
	}
	switch planner {
	case "prm":
		return NewEngine(space, opts)
	case "rrt":
		return NewRRTEngine(space, root, opts)
	case "rrtconnect":
		return NewRRTConnectEngine(space, root, goal, opts)
	}
	return nil, fmt.Errorf("parmp: unknown planner %q (want %s)", planner, strings.Join(PlannerNames(), ", "))
}

func newEngine(space *Space, pl planner) *Engine {
	e := &Engine{space: space, pl: pl}
	e.publish(pl.index())
	return e
}

// publish stamps s — the committed result and its index — with the
// engine's current world and the next generation, and atomically
// installs it. Called with mu held (or before the engine escapes the
// constructor).
func (e *Engine) publish(s *Snapshot) {
	e.gen++
	s.space, s.rounds, s.gen, s.epoch = e.space, e.pl.Rounds(), e.gen, e.space.Env.Epoch
	e.snap.Store(s)
}

// Grow runs one growth round and publishes a new snapshot. It honours
// ctx cooperatively: cancellation is observed at phase barriers and
// between scheduler tasks, the partial round is discarded, and
// ErrStopped is returned with the previous snapshot still in place — a
// canceled engine is never torn and can keep growing later. A nil-like
// background context makes Grow run to completion unconditionally.
//
// Determinism: an engine's sequence of snapshots depends only on the
// options (seed included) and the number of committed rounds — growing
// N rounds in one sitting or across N calls yields the same roadmap.
func (e *Engine) Grow(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var stop <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return ErrStopped
		}
		stop = ctx.Done()
	}
	if err := e.pl.GrowRound(stop); err != nil {
		return err
	}
	e.publish(e.pl.index())
	return nil
}

// GrowN runs up to n growth rounds, stopping early (with ErrStopped)
// if ctx is canceled; every round committed before cancellation is
// already published and stays queryable.
func (e *Engine) GrowN(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := e.Grow(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Rounds returns the number of committed growth rounds.
func (e *Engine) Rounds() int { return e.Snapshot().Rounds() }

// Snapshot returns the engine's latest published state. The returned
// value is immutable and safe for concurrent use; it remains valid
// (answering queries against its own round's structure) forever, even
// while the engine keeps growing past it.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Snapshot is an immutable view of an Engine after some number of
// committed growth rounds: the planner result plus a prebuilt kd index
// (and, for PRM, connected-component labels), so queries need no
// per-call gathering, sorting or roadmap mutation. All methods are safe
// for concurrent use.
type Snapshot struct {
	space  *Space
	rounds int
	gen    uint64
	epoch  uint64

	stats  *core.RunStats // the result's planner-independent part
	prmRes *PRMResult
	rrtRes *RRTResult
	// ix is the result's query index: a roadmap's *prm.Index or a
	// tree's *core.TreeIndex.
	ix interface {
		NumNodes() int
		Query(s *Space, start, goal Config, k int, c *cspace.Counters) ([]Config, bool)
	}
}

// Rounds returns the number of growth rounds this snapshot reflects.
func (s *Snapshot) Rounds() int { return s.rounds }

// Generation identifies this snapshot within its engine: it increments
// on every publish — growth rounds and repairs alike — so a cache keyed
// on it invalidates whenever the engine's answers could change. (Rounds
// is not that key: ApplyDelta publishes without growing.) Strictly
// increasing per engine, starting at 1 for the initial empty snapshot.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Epoch is the environment epoch this snapshot was planned against:
// the number of mutations committed to the engine's world when it was
// published. Non-decreasing per engine; a query answered by an
// old-epoch snapshot may not reflect newer obstacles.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// PRM returns the snapshot's PRM result, or nil for RRT engines. The
// result (roadmap included) is frozen: treat it as read-only.
func (s *Snapshot) PRM() *PRMResult { return s.prmRes }

// RRT returns the snapshot's RRT result, or nil for PRM engines. The
// result (branches included) is frozen: treat it as read-only.
func (s *Snapshot) RRT() *RRTResult { return s.rrtRes }

// NumNodes returns the number of indexed configurations (roadmap nodes
// or tree nodes).
func (s *Snapshot) NumNodes() int { return s.ix.NumNodes() }

// queryInputOK screens a query's inputs: k must be positive (even for
// tree snapshots, where it is otherwise unused), and both endpoints must
// have the space's dimension and lie inside its bounds. Screening
// rejects with a miss rather than a panic, which is what a serving layer
// fed untrusted requests needs. NaN coordinates fail the bounds check.
func (s *Snapshot) queryInputOK(start, goal Config, k int) bool {
	if k <= 0 {
		return false
	}
	if len(start) != s.space.Dim() || len(goal) != s.space.Dim() {
		return false
	}
	return s.inBounds(start) && s.inBounds(goal)
}

// inBounds is Bounds.Contains with NaN rejection: a NaN coordinate fails
// every comparison, so the inverted form catches it.
func (s *Snapshot) inBounds(q Config) bool {
	for i, v := range q {
		if !(v >= s.space.Bounds.Lo[i] && v <= s.space.Bounds.Hi[i]) {
			return false
		}
	}
	return true
}

// Query answers a motion-planning query against the frozen snapshot,
// returning a collision-free path from start to goal (endpoints
// included) or ok=false when the snapshot cannot connect them yet.
// Malformed inputs — k ≤ 0, endpoints of the wrong dimension or outside
// the space's bounds — also answer (nil, false), never panic.
//
// For PRM snapshots, start and goal each attach to their k nearest
// reachable roadmap nodes and a shortest-path search joins them; the
// roadmap is not modified.
//
// For RRT snapshots the tree grows from the engine's root, so start
// must be the root (or local-plannable to it, for a start a step away);
// the path then follows tree edges to the node nearest goal. k is
// otherwise ignored.
func (s *Snapshot) Query(start, goal Config, k int) ([]Config, bool) {
	if !s.queryInputOK(start, goal, k) {
		return nil, false
	}
	return s.ix.Query(s.space, start, goal, k, nil)
}

// QueryBatch answers len(starts) queries against the frozen snapshot: a
// batch is its queries, answered in order, so slot i of the returned
// paths and hit flags is exactly Query(starts[i], goals[i], k). A query
// that fails input screening (see Query) misses without disturbing the
// rest of the batch; a mismatched goals length misses the whole batch.
// Safe for concurrent use.
func (s *Snapshot) QueryBatch(starts, goals []Config, k int) ([][]Config, []bool) {
	paths := make([][]Config, len(starts))
	oks := make([]bool, len(starts))
	if len(goals) != len(starts) {
		return paths, oks
	}
	for i := range starts {
		paths[i], oks[i] = s.Query(starts[i], goals[i], k)
	}
	return paths, oks
}

package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parmp"
)

// engine is what a tenant serves: a plain parmp.Engine or a
// parmp.Portfolio, both of which grow round-by-round under cooperative
// cancellation, accept environment mutations with incremental repair,
// and publish immutable snapshots.
type engine interface {
	Grow(ctx context.Context) error
	Rounds() int
	Snapshot() *parmp.Snapshot
	ApplyDelta(ctx context.Context, muts ...parmp.Mutation) (parmp.RepairStats, error)
}

// Pool owns the server's engines: one tenant per canonical spec,
// constructed lazily on first request, pooled once built (see tenant),
// grown in the background, evicted least-recently-used beyond the cap.
//
// WaitGroup discipline: every p.wg.Add happens under p.mu while closed
// is provably false, so Close's Wait never races an Add — the Go
// WaitGroup contract forbids Add concurrent with Wait.
type Pool struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenant
	order   *list.List // *tenant, front = most recently used
	// pending holds the engine builds in flight, so concurrent first
	// requests for one spec share one build.
	pending map[string]*pendingBuild
}

// pendingBuild is one spec's engine build: done closes once t or err is
// set.
type pendingBuild struct {
	done chan struct{}
	t    *tenant
	err  error
}

// tenant is one built engine plus its serving machinery.
type tenant struct {
	key  string
	spec Spec
	pool *Pool
	elem *list.Element
	eng  engine

	cache *pathCache
	// gate is the admission gate: one token per query (or client batch)
	// admitted and not yet answered, QueueDepth at most.
	gate   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc

	queries   atomic.Int64 // answered queries, cache hits included
	cacheHits atomic.Int64
	rejected  atomic.Int64 // 429s
	batches   atomic.Int64 // /v1/batch requests answered
	batched   atomic.Int64 // queries in them that ran a search
	growDone  atomic.Bool
	growErr   atomic.Pointer[error] // terminal (non-cancellation) Grow failure

	// Environment-mutation accounting (POST /v1/env/mutate).
	mu       sync.Mutex   // serializes ApplyDelta per tenant
	repairs  atomic.Int64 // committed mutate requests
	repairUS atomic.Int64 // cumulative wall-clock repair latency, microseconds
}

// ErrPoolClosed is returned by tenant after Close: a closed pool
// refuses new tenants instead of leaking goroutines on a dead context.
var ErrPoolClosed = errors.New("serve: pool closed")

// NewPool creates an empty pool with cfg's defaults applied.
func NewPool(cfg Config) *Pool {
	ctx, cancel := context.WithCancel(context.Background())
	return &Pool{
		cfg:     cfg.withDefaults(),
		ctx:     ctx,
		cancel:  cancel,
		tenants: make(map[string]*tenant),
		order:   list.New(),
		pending: make(map[string]*pendingBuild),
	}
}

// Close cancels every tenant and waits for their grow loops — the only
// goroutines the pool starts — to exit. After Close, tenant returns
// ErrPoolClosed; a handler already past admission finishes its query on
// the snapshot it holds; engines are left to the garbage collector.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cancel()
	for _, t := range p.tenants {
		t.cancel()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// tenant returns the live tenant for a canonical spec whose key is key,
// touching it in the LRU order; the first request for a spec builds its
// engine outside the pool lock (bookkeeping never blocks on C-space
// subdivision) and only a built tenant takes a slot, evicting the least
// recently used one beyond the cap, and starts its one background
// goroutine, the grow loop.
// A spec that cannot build returns the build error and leaves the pool
// as it was. After Close — or when the pool closed while the engine was
// building, in which case nothing starts — it returns ErrPoolClosed.
func (p *Pool) tenant(key string, spec Spec) (*tenant, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if t, ok := p.tenants[key]; ok {
		p.order.MoveToFront(t.elem)
		p.mu.Unlock()
		return t, nil
	}
	if b, ok := p.pending[key]; ok {
		p.mu.Unlock()
		<-b.done
		return b.t, b.err
	}
	b := &pendingBuild{done: make(chan struct{})}
	p.pending[key] = b
	p.mu.Unlock()

	eng, err := spec.build()

	p.mu.Lock()
	delete(p.pending, key)
	if err == nil && p.closed {
		err = ErrPoolClosed
	}
	if err == nil {
		ctx, cancel := context.WithCancel(p.ctx)
		t := &tenant{
			key:    key,
			spec:   spec,
			pool:   p,
			eng:    eng,
			cache:  newPathCache(p.cfg.CacheSize),
			gate:   make(chan struct{}, p.cfg.QueueDepth),
			ctx:    ctx,
			cancel: cancel,
		}
		t.elem = p.order.PushFront(t)
		p.tenants[key] = t
		if len(p.tenants) > p.cfg.MaxTenants {
			back := p.order.Back()
			evicted := back.Value.(*tenant)
			p.order.Remove(back)
			delete(p.tenants, evicted.key)
			evicted.cancel()
		}
		p.wg.Add(1)
		go t.growLoop()
		b.t = t
	}
	p.mu.Unlock()
	b.err = err
	close(b.done)
	return b.t, err
}

// growLoop grows the tenant's engine toward its spec's round target,
// invalidating the path cache after every committed round (snapshot
// rollover). Serving never blocks on growth: queries read whichever
// snapshot is currently published. A non-cancellation Grow error is
// terminal for growth but not for serving: it is recorded on the tenant
// (surfaced as grow_error in stats) and the already-committed snapshots
// keep answering queries.
func (t *tenant) growLoop() {
	defer t.pool.wg.Done()
	for t.eng.Rounds() < t.spec.Rounds {
		if err := t.eng.Grow(t.ctx); err != nil {
			if errors.Is(err, parmp.ErrStopped) || t.ctx.Err() != nil {
				return // canceled: pool closing or tenant evicted
			}
			t.growErr.Store(&err)
			return
		}
		t.cache.invalidate(int64(t.eng.Snapshot().Generation()))
		if iv := t.pool.cfg.GrowInterval; iv > 0 {
			select {
			case <-time.After(iv):
			case <-t.ctx.Done():
				return
			}
		}
	}
	t.growDone.Store(true)
}

// TenantStats is one tenant's row in the stats endpoint.
type TenantStats struct {
	Env     string `json:"env"`
	Planner string `json:"planner"`
	Seed    uint64 `json:"seed"`
	// BuildErr is always empty and off the wire (a tenant is listed once
	// built); the frozen bench/ still reads it — it goes with the ROADMAP
	// item that unfreezes bench/.
	BuildErr string `json:"-"`
	// GrowError is a terminal background-growth failure; the tenant
	// still serves its last committed snapshot.
	GrowError string `json:"grow_error,omitempty"`
	Rounds    int    `json:"rounds"`
	Nodes     int    `json:"nodes"`
	GrowDone  bool   `json:"grow_done"`
	Queries   int64  `json:"queries"`
	CacheHits int64  `json:"cache_hits"`
	CacheLen  int    `json:"cache_len"`
	Rejected  int64  `json:"rejected"`
	// Batches counts the /v1/batch requests answered and Batched the
	// queries in them that ran a search (the rest were cache hits);
	// QueueLen is the number of queries admitted and not yet answered.
	Batches  int64 `json:"batches"`
	Batched  int64 `json:"batched"`
	QueueLen int   `json:"queue_len"`
	// Dynamic-world accounting: the snapshot's environment epoch and
	// publish generation, mutate-request count, cumulative wall-clock
	// repair latency and the repair work committed so far (virtual
	// makespan plus node/edge casualties).
	Epoch          uint64  `json:"epoch"`
	Generation     uint64  `json:"generation"`
	Repairs        int64   `json:"repairs,omitempty"`
	RepairUS       float64 `json:"repair_us,omitempty"`
	RepairMakespan float64 `json:"repair_makespan,omitempty"`
	RepairRemoved  int     `json:"repair_removed,omitempty"`
	// Portfolio tenants additionally report the race's progress.
	Racers   int `json:"racers,omitempty"`
	Waves    int `json:"waves,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// Winner is the winning racer index; absent while the race is
	// undecided (only set when Racers > 0).
	Winner *int `json:"winner,omitempty"`
}

// Stats snapshots every live tenant, most recently used first.
func (p *Pool) Stats() []TenantStats {
	p.mu.Lock()
	ts := make([]*tenant, 0, p.order.Len())
	for el := p.order.Front(); el != nil; el = el.Next() {
		ts = append(ts, el.Value.(*tenant))
	}
	p.mu.Unlock()
	out := make([]TenantStats, 0, len(ts))
	for _, t := range ts {
		env := t.spec.Env
		if env == "" {
			env = "inline"
		}
		st := TenantStats{
			Env:       env,
			Planner:   t.spec.Planner,
			Seed:      t.spec.Seed,
			Queries:   t.queries.Load(),
			CacheHits: t.cacheHits.Load(),
			CacheLen:  t.cache.len(),
			Rejected:  t.rejected.Load(),
			Batches:   t.batches.Load(),
			Batched:   t.batched.Load(),
			QueueLen:  len(t.gate),
			GrowDone:  t.growDone.Load(),
		}
		if errp := t.growErr.Load(); errp != nil {
			st.GrowError = (*errp).Error()
		}
		snap := t.eng.Snapshot()
		st.Rounds = snap.Rounds()
		st.Nodes = snap.NumNodes()
		st.Epoch = snap.Epoch()
		st.Generation = snap.Generation()
		st.Repairs = t.repairs.Load()
		st.RepairUS = float64(t.repairUS.Load())
		var rep parmp.RepairStats
		if r := snap.PRM(); r != nil {
			rep = r.Repairs
		} else if r := snap.RRT(); r != nil {
			rep = r.Repairs
		}
		st.RepairMakespan = rep.Makespan
		st.RepairRemoved = rep.RemovedNodes + rep.RemovedEdges
		if pf, ok := t.eng.(*parmp.Portfolio); ok {
			ps := pf.Stats()
			st.Racers = ps.Racers
			st.Waves = ps.Waves
			st.Restarts = ps.Restarts
			if w := ps.Winner; w >= 0 {
				st.Winner = &w
			}
		}
		out = append(out, st)
	}
	return out
}

package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/sched"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// stopAfter is an Options.Runtime decorator that closes a stop channel
// once the k-th phase replay since arm has returned — cancellation at an
// exact, repeatable point of a round instead of after a wall-clock delay.
type stopAfter struct {
	calls, k int
	stop     chan struct{}
}

func (r *stopAfter) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	rep := dist.Runtime.Run(cfg, queues)
	if r.calls++; r.calls == r.k {
		close(r.stop)
	}
	return rep
}

// arm restarts the replay count and returns the channel the k-th replay
// from now will close (k = 0: never).
func (r *stopAfter) arm(k int) <-chan struct{} {
	r.calls, r.k, r.stop = 0, k, make(chan struct{})
	return r.stop
}

// contractEngine is the planner-independent surface the contract is
// stated over: the driver plus the typed entry points around it.
type contractEngine struct {
	drv    *engine
	repair func(s *cspace.Space, d env.Delta, stop <-chan struct{}) error
	result func() any
	// content fingerprints the committed roadmap / forest bit-exactly.
	content func() string
}

func fingerprint(put func(add func(vs ...float64))) string {
	h := fnv.New64a()
	put(func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", v)
		}
	})
	return fmt.Sprintf("%x", h.Sum64())
}

func newContractEngine(t *testing.T, planner string, s *cspace.Space, opts Options) contractEngine {
	t.Helper()
	if planner == "prm" {
		e, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		return contractEngine{
			drv: &e.engine,
			repair: func(s *cspace.Space, d env.Delta, stop <-chan struct{}) error {
				_, err := e.ApplyDelta(s, d, nil, stop)
				return err
			},
			result: func() any { return e.Result() },
			content: func() string {
				m := e.Result().Roadmap
				return fingerprint(func(add func(...float64)) {
					for i := 0; i < m.NumNodes(); i++ {
						add(m.G.Vertex(graph.ID(i)).Q...)
					}
					m.G.ForEachEdge(func(a, b graph.ID, w float64) { add(float64(a), float64(b), w) })
				})
			},
		}
	}
	root, goal := geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9)
	opts.Star = planner == "rrtstar"
	var e *RRTEngine
	var err error
	if planner == "rrtconnect" {
		e, err = NewRRTConnectEngine(s, root, goal, opts)
	} else {
		e, err = NewRRTEngine(s, root, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return contractEngine{
		drv: &e.engine,
		repair: func(s *cspace.Space, d env.Delta, stop <-chan struct{}) error {
			_, err := e.ApplyDelta(s, d, stop)
			return err
		},
		result: func() any { return e.Result() },
		content: func() string {
			res := e.Result()
			return fingerprint(func(add func(...float64)) {
				for _, b := range res.Branches {
					for _, nd := range b.Nodes {
						add(nd.Q...)
						add(float64(nd.Parent))
					}
				}
				for _, br := range res.Bridges {
					add(float64(br[0]), float64(br[1]), float64(br[2]), float64(br[3]))
				}
				add(float64(res.TreesMet), float64(res.Rewires), float64(res.PrunedCycles))
			})
		},
	}
}

// The cancellation contract, for every planner × strategy × cost model
// and for EVERY checkpoint of a GrowRound and an ApplyDelta: a stop that
// fires after the k-th phase replay yields ErrStopped and leaves the
// published result, the region ownership and the phase-report log exactly
// as they were; and an engine that suffered every one of those aborts
// still commits, operation by operation, the same content at the same
// virtual time as an engine that was never interrupted — which also
// proves an aborted round never reaches the cost model.
func TestCancellationContract(t *testing.T) {
	type balancer struct {
		name     string
		strategy Strategy
		policy   steal.Policy
	}
	balancers := []balancer{{"nolb", NoLB, nil}, {"repartition", Repartition, nil}, {"stealing", NoLB, steal.Hybrid{K: 4}},
		{"repartition+hybrid", Repartition, steal.Hybrid{K: 4}}}
	base := env.Mixed30()
	mutated := base.Clone()
	delta, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.3, 0.3, 0.3, 0.55, 0.55, 0.55)})
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range []string{"prm", "rrt", "rrtstar", "rrtconnect"} {
		for _, lb := range balancers {
			for _, cm := range []CostModelKind{CostStatic, CostObserved} {
				t.Run(fmt.Sprintf("%s/%s/%s", planner, lb.name, cm), func(t *testing.T) {
					s := cspace.NewPointSpace(base)
					after := s.WithEnv(mutated)
					rt := &stopAfter{}
					opts := Options{
						Procs: 4, Regions: 16, SamplesPerRegion: 8, NodesPerRegion: 20, Radius: 0.9,
						Strategy: lb.strategy, Policy: lb.policy, CostModel: cm, Seed: 3, Runtime: rt,
					}
					ref := newContractEngine(t, planner, s, opts)
					eng := newContractEngine(t, planner, s, opts)
					type opFunc func(e contractEngine, stop <-chan struct{}) error
					grow := opFunc(func(e contractEngine, stop <-chan struct{}) error { return e.drv.GrowRound(stop) })
					repair := opFunc(func(e contractEngine, stop <-chan struct{}) error { return e.repair(after, delta, stop) })
					ops := []struct {
						name string
						run  opFunc
					}{{"grow0", grow}, {"grow1", grow}, {"repair", repair}, {"grow2", grow}}
					for _, op := range ops {
						if err := op.run(ref, rt.arm(0)); err != nil {
							t.Fatalf("%s: uninterrupted: %v", op.name, err)
						}
						replays := rt.calls
						if replays < 2 {
							t.Fatalf("%s: only %d phase replays — nothing to interrupt", op.name, replays)
						}
						res, stats := eng.result(), eng.drv.stats
						owner, reports := append([]int(nil), eng.drv.rg.Owner...), len(eng.drv.pl.reports)
						for k := 1; k <= replays; k++ {
							if err := op.run(eng, rt.arm(k)); err != ErrStopped {
								t.Fatalf("%s: stop after replay %d/%d: err = %v, want ErrStopped", op.name, k, replays, err)
							}
							if eng.result() != res || !reflect.DeepEqual(eng.drv.stats, stats) {
								t.Fatalf("%s: stop after replay %d touched the published result", op.name, k)
							}
							if !reflect.DeepEqual(eng.drv.rg.Owner, owner) {
								t.Fatalf("%s: stop after replay %d left region ownership changed", op.name, k)
							}
							if len(eng.drv.pl.reports) != reports {
								t.Fatalf("%s: stop after replay %d leaked %d phase reports", op.name, k, len(eng.drv.pl.reports)-reports)
							}
						}
						if err := op.run(eng, rt.arm(0)); err != nil {
							t.Fatalf("%s: resumed: %v", op.name, err)
						}
						if got, want := eng.content(), ref.content(); got != want {
							t.Fatalf("%s: content after %d aborts %s, uninterrupted %s", op.name, replays, got, want)
						}
						got := fmt.Sprintf("%.17g", eng.drv.stats.TotalTime)
						if want := fmt.Sprintf("%.17g", ref.drv.stats.TotalTime); got != want {
							t.Fatalf("%s: TotalTime after %d aborts %s, uninterrupted %s", op.name, replays, got, want)
						}
					}
				})
			}
		}
	}
}

package core

import (
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// extractPathSequential is TreeIndex.ExtractPath as it was when goal
// attach ran the sequential LocalPlan per candidate, kept verbatim as the
// reference the batched attach is tested against.
func extractPathSequential(ix *TreeIndex, s *cspace.Space, goal cspace.Config, c *cspace.Counters) ([]cspace.Config, bool) {
	if !s.Valid(goal, c) {
		return nil, false
	}
	n := len(ix.pts)
	if n == 0 {
		return nil, false
	}
	tried := 0
	for k := 8; tried < n; k *= 2 {
		hits, evals := ix.tree.Nearest(goal, k)
		if c != nil {
			c.KNNQueries++
			c.KNNEvals += int64(evals)
		}
		// hits are sorted closest-first; the first `tried` were already
		// attempted in the previous, smaller neighbourhood.
		for _, h := range hits[tried:] {
			rf := ix.refs[h.Index]
			branch := ix.res.Branches[rf.branch]
			// Plan tree → goal: steering may be asymmetric (a forward-only
			// car cannot drive a path backwards).
			if !s.LocalPlan(branch.Nodes[rf.node].Q, goal, c) {
				continue
			}
			idxPath := branch.PathToRoot(rf.node)
			path := make([]cspace.Config, 0, len(idxPath)+1)
			for i := len(idxPath) - 1; i >= 0; i-- {
				path = append(path, branch.Nodes[idxPath[i]].Q.Clone())
			}
			path = append(path, goal.Clone())
			return path, true
		}
		tried = len(hits)
		if len(hits) < k {
			break // neighbourhood already covered the whole tree
		}
	}
	return nil, false
}

// TestExtractPathMatchesSequential: the three local-plan orders accept
// and reject the same edges, so the first nearest-first candidate the
// batched attach accepts is the one the sequential attach accepted, and
// the path is the same. Every tree planner on four scenes after one to
// three rounds, 64 goals each (uniform draws — free, in collision,
// unreachable — and the root itself), plus a Dubins RRT for the steered
// fallback. The kNN work and the number of local plans are the same too;
// only what a rejected candidate costs may differ.
func TestExtractPathMatchesSequential(t *testing.T) {
	type engine struct {
		name  string
		s     *cspace.Space
		root  cspace.Config
		build func(s *cspace.Space, root cspace.Config, opts Options) (*RRTEngine, error)
		star  bool
	}
	var engines []engine
	for _, name := range []string{"free", "med-cube", "walls", "mixed-30"} {
		s := cspace.NewPointSpace(env.ByName(name))
		root := geom.V(0.1, 0.1, 0.5)
		goal := geom.V(0.9, 0.9, 0.5)
		connect := func(s *cspace.Space, root cspace.Config, opts Options) (*RRTEngine, error) {
			return NewRRTConnectEngine(s, root, goal, opts)
		}
		engines = append(engines,
			engine{"rrt/" + name, s, root, NewRRTEngine, false},
			engine{"rrtstar/" + name, s, root, NewRRTEngine, true},
			engine{"rrtconnect/" + name, s, root, connect, false})
	}
	engines = append(engines, engine{"dubins", cspace.NewDubinsSpace(env.ByName("maze-2d"), 0.06), geom.V(0.1, 0.1, 0), NewRRTEngine, false})

	var attached, invalid, unreachable int
	for i, e := range engines {
		opts := rrtOpts(4, 8)
		opts.NodesPerRegion = 8
		opts.Radius = 0.9
		opts.Star = e.star
		eng, err := e.build(e.s, e.root, opts)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 1 + i%3
		ix := BuildTreeIndex(growRRT(t, eng, rounds))
		r := rng.Derive(7, uint64(i))
		for g := 0; g < 64; g++ {
			goal := e.root
			if g > 0 {
				goal = e.s.SampleIn(e.s.Bounds, r, nil)
			}
			var gotC, wantC cspace.Counters
			got, gotOK := ix.ExtractPath(e.s, goal, &gotC)
			want, wantOK := extractPathSequential(ix, e.s, goal, &wantC)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %d rounds, goal %v: attach %v %v, sequential %v %v", e.name, rounds, goal, gotOK, got, wantOK, want)
			}
			if gotC.KNNQueries != wantC.KNNQueries || gotC.KNNEvals != wantC.KNNEvals || gotC.LPCalls != wantC.LPCalls {
				t.Fatalf("%s after %d rounds, goal %v: counters %+v, sequential %+v", e.name, rounds, goal, gotC, wantC)
			}
			switch {
			case gotOK:
				attached++
			case !e.s.Valid(goal, nil):
				invalid++
			default:
				unreachable++
			}
		}
	}
	if attached == 0 || invalid == 0 || unreachable == 0 {
		t.Fatalf("goal mix not covered: %d attached, %d in collision, %d unreachable", attached, invalid, unreachable)
	}
}

package core

import (
	"fmt"
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/prm"
	"parmp/internal/rng"
)

// TestRegionForestRepairMatchesOneTree drives the commit-churn engine —
// warehouse-forklift, point robot — through 16 Grow + ApplyDelta rounds,
// indexing every publish as parmp.Engine does (BuildIndex after a round,
// AffectedVertices and RepairIndex around a repair). After every publish:
//   - each region's kept tree is knn.BuildBoxed over its committed nodes,
//     array for array, and the roadmap carries exactly those trees;
//   - the index, a forest of those trees, answers a fixed probe set with
//     the Query results of a one-tree index built from scratch over the
//     same roadmap, and the next delta with the same AffectedVertices.
func TestRegionForestRepairMatchesOneTree(t *testing.T) {
	world, moves := env.WarehouseForkliftMoves()
	space := cspace.NewPointSpace(world)
	eng, err := NewPRMEngine(space, Options{Procs: 8, Regions: 256, Strategy: Repartition, SamplesPerRegion: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// deltaAt returns round r's scripted move of every forklift as one
	// delta over s's world, and the space after it.
	deltaAt := func(s *cspace.Space, r int) (env.Delta, *cspace.Space) {
		clone := s.Env.Clone()
		var d env.Delta
		for j, mv := range moves(r) {
			dj, err := clone.MoveObstacle(mv.Index, mv.By)
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				d = dj
			} else {
				d = d.Merge(dj)
			}
		}
		return d, s.WithEnv(clone)
	}
	r := rng.New(5)
	probes := make([][2]cspace.Config, 12)
	for i := range probes {
		probes[i] = [2]cspace.Config{geom.V(r.Float64(), r.Float64()), geom.V(r.Float64(), r.Float64())}
	}
	probes[0] = [2]cspace.Config{geom.V(0.05, 0.05), geom.V(0.95, 0.95)}

	solved, affected := 0, 0
	check := func(stage string, ix *prm.Index, s *cspace.Space, next env.Delta) {
		t.Helper()
		m := ix.Roadmap()
		trees := make([]*knn.KDTree, len(eng.data))
		for i := range eng.data {
			d := &eng.data[i]
			pts := make([]geom.Vec, len(d.nodes))
			for j, n := range d.nodes {
				pts[j] = n.Q
			}
			if want := knn.BuildBoxed(pts); !reflect.DeepEqual(d.tree, want) {
				t.Fatalf("%s: region %d's tree is not knn.BuildBoxed over its %d nodes", stage, i, len(d.nodes))
			}
			trees[i] = d.tree
		}
		if !reflect.DeepEqual(m, prm.WithRegionTrees(m.G, trees)) {
			t.Fatalf("%s: the published roadmap does not carry the regions' trees", stage)
		}
		one := prm.BuildIndex(&prm.Roadmap{G: m.G})
		for i, pr := range probes {
			for _, k := range []int{1, 8} {
				var cf, co cspace.Counters
				got, gotOK := ix.Query(s, pr[0], pr[1], k, &cf)
				want, wantOK := one.Query(s, pr[0], pr[1], k, &co)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) || cf.LPCalls != co.LPCalls {
					t.Fatalf("%s probe %d k=%d: forest %v (%d hops, %d local plans), one tree %v (%d hops, %d local plans)",
						stage, i, k, gotOK, len(got), cf.LPCalls, wantOK, len(want), co.LPCalls)
				}
				if gotOK {
					solved++
				}
			}
		}
		dc := cspace.NewDeltaChecker(s, next)
		if got, want := ix.AffectedVertices(dc), one.AffectedVertices(dc); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AffectedVertices %d vertices, one tree %d", stage, len(got), len(want))
		} else {
			affected += len(got)
		}
	}

	repaired := 0
	for round := 0; round < 16; round++ {
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
		ix := prm.BuildIndex(eng.Result().Roadmap)
		delta, next := deltaAt(space, round)
		check(fmt.Sprintf("round %d grow", round), ix, space, delta)

		cand := ix.AffectedVertices(cspace.NewDeltaChecker(space, delta))
		if cand == nil {
			cand = []int{}
		}
		rep, err := eng.ApplyDelta(next, delta, cand, nil)
		if err != nil {
			t.Fatal(err)
		}
		space = next
		if rep.VertexRemap != nil {
			ix = prm.RepairIndex(ix, eng.Result().Roadmap, rep.VertexRemap, rep.TouchedVertices)
			repaired++
		}
		following, _ := deltaAt(space, round+1)
		check(fmt.Sprintf("round %d repair", round), ix, space, following)
	}
	if repaired == 0 || solved == 0 || affected == 0 {
		t.Fatalf("weak run: %d repaired indexes, %d solved probes, %d affected vertices", repaired, solved, affected)
	}
	t.Logf("%d repaired indexes, %d solved probes, %d affected vertices", repaired, solved, affected)
}

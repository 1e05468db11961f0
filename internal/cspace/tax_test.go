//go:build !race

package cspace

import (
	"testing"
	"time"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// freeEdges rejection-samples n free edges of s, each coordinate of an
// edge's end within reach of its start, so no plan fails fast and both
// orders run every check of the edges PRM connects.
func freeEdges(s *Space, reach float64, n int) [][2]Config {
	r := rng.New(13)
	var sc Scratch
	var edges [][2]Config
	for len(edges) < n {
		qa := s.SampleIn(s.Bounds, r, nil)
		qb := qa.Clone()
		for k := range qb {
			qb[k] += r.Range(-reach, reach)
		}
		if s.ValidS(qa, &sc, nil) && s.ValidS(qb, &sc, nil) && s.LocalPlanS(qa, qb, &sc, nil) {
			edges = append(edges, [2]Config{qa, qb})
		}
	}
	return edges
}

// TestBatchIsNotATax holds LocalPlanBatch to at most 1.15× the time of
// LocalPlanS on the same free edges: the point robot's edge skirting
// med-cube's central cube, and 16 edges each of the rigid box and the
// 4-link linkage. Both sides run in this process on this host, so the
// ratio needs no stored baseline; a noisy host fails it only if all five
// repetitions read above the bound.
func TestBatchIsNotATax(t *testing.T) {
	cs := batchCases()
	cases := []struct {
		name  string
		s     *Space
		edges [][2]Config
	}{
		{"point", cs[1].s, [][2]Config{{geom.V(0.05, 0.05, 0.05), geom.V(0.1, 0.9, 0.1)}}},
		{"rigid", cs[2].s, freeEdges(cs[2].s, 0.08, 16)},
		{"linkage", cs[3].s, freeEdges(cs[3].s, 0.2, 16)},
	}
	for _, c := range cases {
		var sc Scratch
		var bt Batch
		var cnt Counters
		ratios := make([]float64, 5)
		for rep := range ratios {
			start := time.Now()
			for i := 0; i < 1000; i++ {
				e := c.edges[i%len(c.edges)]
				c.s.LocalPlanS(e[0], e[1], &sc, &cnt)
			}
			mid := time.Now()
			for i := 0; i < 1000; i++ {
				e := c.edges[i%len(c.edges)]
				c.s.LocalPlanBatch(e[0], e[1], &bt, &cnt)
			}
			ratios[rep] = float64(time.Since(mid)) / float64(mid.Sub(start))
		}
		t.Logf("%s: LocalPlanBatch / LocalPlanS per edge: %.2f", c.name, ratios)
		if min(ratios[0], ratios[1], ratios[2], ratios[3], ratios[4]) > 1.15 {
			t.Errorf("%s: LocalPlanBatch costs %.2f× LocalPlanS per edge in every repetition, want at most 1.15×", c.name, ratios)
		}
	}
}

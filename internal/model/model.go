// Package model implements the paper's theoretical model environment
// (Section IV-B): a 2D workspace with a single square obstacle equidistant
// from the bounding box. Because free volume is exactly computable per
// region, the model predicts the load imbalance of the naive
// column-partitioned mapping, bounds the best achievable balance with a
// greedy global partition, and thereby bounds the improvement *any* load
// balancing technique can achieve.
package model

import (
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/repart"
)

// Model is the analytic environment: Blocked is the obstacle's area
// fraction, Grid the number of regions per side (Grid×Grid regions).
type Model struct {
	Blocked float64
	Grid    int
}

// Env returns the concrete 2D environment for the model.
func (m Model) Env() *env.Environment { return env.Model2D(m.Blocked) }

// Regions returns the uniform Grid×Grid region graph over the model. The
// spec is valid by construction for any positive Grid.
func (m Model) Regions() *region.Graph {
	return region.MustUniformGrid(m.Env().Bounds, region.GridSpec{Cells: []int{m.Grid, m.Grid}})
}

// VFree returns each region's exact free-space volume, in region-ID
// (row-major) order. Per the paper, "the total load that the region will
// experience is proportional to V_free".
func (m Model) VFree() []float64 {
	e := m.Env()
	rg := m.Regions()
	w := make([]float64, rg.NumRegions())
	for i := range w {
		w[i] = e.FreeVolumeIn(rg.Region(i).Box, 0, 1)
	}
	return w
}

// NaiveLoads returns the per-processor V_free totals under the naive 1D
// column partition of the region mesh.
func (m Model) NaiveLoads(p int) []float64 {
	rg := m.Regions()
	region.NaiveColumnPartition(rg, p)
	return repart.Loads(m.VFree(), rg.Owner, p)
}

// BestLoads returns the per-processor V_free totals under the greedy
// global partition (edge cuts ignored, as in the paper's model analysis).
func (m Model) BestLoads(p int) []float64 {
	w := m.VFree()
	return repart.Loads(w, repart.GreedyLPT(w, p), p)
}

// NaiveCV is the model-predicted coefficient of variation of the naive
// mapping (Fig. 4(a), "Model imbalance").
func (m Model) NaiveCV(p int) float64 { return metrics.CV(m.NaiveLoads(p)) }

// BestCV is the model-predicted coefficient of variation of the best
// greedy partition (Fig. 4(a), "Model improvement").
func (m Model) BestCV(p int) float64 { return metrics.CV(m.BestLoads(p)) }

// TheoreticalImprovement is the percentage reduction in the maximum
// per-processor V_free achieved by the best partition over the naive one
// (Fig. 4(b), "Theoretical (unit area)"). Zero when no improvement is
// possible.
func (m Model) TheoreticalImprovement(p int) float64 {
	naive := metrics.Max(m.NaiveLoads(p))
	best := metrics.Max(m.BestLoads(p))
	if naive <= 0 {
		return 0
	}
	imp := 100 * (naive - best) / naive
	if imp < 0 {
		return 0
	}
	return imp
}

package core

// ewmaAlpha is the observed cost model's smoothing factor: half the
// weight on the newest round, which tracks the strong round-to-round
// autocorrelation of region costs while still damping one-round noise
// spikes.
const ewmaAlpha = 0.5

// ewma is the observed cost model behind CostObserved: per region, an
// exponentially weighted moving average of the region's cost per unit,
// est ← α·c + (1−α)·est. It closes the paper's open load-balancing loop:
// the static estimators (sample counts for PRM, k random rays for the
// trees) are noisy enough that repartitioning on them can hurt — the
// paper's own negative result — while observed costs are strongly
// autocorrelated round to round. It is deterministic: the virtual-time
// pipeline replays rounds bit-identically, so it consults no wall clock
// and no randomness of its own.
type ewma struct {
	est    []float64
	seen   []bool
	rounds int
}

// newEWMA returns a model over n regions that has observed nothing.
func newEWMA(n int) *ewma {
	return &ewma{est: make([]float64, n), seen: make([]bool, n)}
}

// Observe folds one committed phase's per-region costs into the model
// as cost per unit, costs[i] / units[i]. A region with no units carries
// no information and keeps its previous estimate. The first observation
// of a region seeds its estimate directly (no decay from an arbitrary
// zero), later ones decay into it.
func (m *ewma) Observe(costs []float64, units []int) {
	any := false
	for i, u := range units {
		if u <= 0 {
			continue
		}
		c := costs[i] / float64(u)
		if c < 0 {
			c = 0
		}
		if m.seen[i] {
			m.est[i] = ewmaAlpha*c + (1-ewmaAlpha)*m.est[i]
		} else {
			m.est[i] = c
			m.seen[i] = true
		}
		any = true
	}
	if any {
		m.rounds++
	}
}

// Rounds is how many phases the model has observed a region in.
func (m *ewma) Rounds() int { return m.rounds }

// PerUnit is the model's cost per unit of every region: the estimate
// where the region was observed, the mean observed estimate elsewhere.
// It needs Rounds() > 0.
func (m *ewma) PerUnit() []float64 {
	var sum float64
	count := 0
	for i, e := range m.est {
		if m.seen[i] {
			sum += e
			count++
		}
	}
	mean := sum / float64(count)
	out := make([]float64, len(m.est))
	for i := range out {
		out[i] = mean
		if m.seen[i] {
			out[i] = m.est[i]
		}
	}
	return out
}

// Package costmodel fits per-region cost estimates from the task times
// the scheduler actually observed in prior rounds, closing the paper's
// open load-balancing loop: its static estimators (sample counts for
// PRM, k random rays for RRT) are noisy enough that repartitioning on
// them can hurt — the paper's own negative result — while observed costs
// are strongly autocorrelated round to round, so an exponentially
// weighted moving average over them is a far better predictor of next
// round's work.
//
// The model consumes the Elapsed times of sched.Report's task records,
// attributed by their Region (internal/core folds them per region before
// calling Observe) and produces the weight vector internal/core
// repartitions on (and scores with repart.Loads). Cold start falls back
// to the caller's static estimate: Blend rescales static weights into
// observed units for regions the model has not seen yet, so a partially
// warm model never compares microseconds against raw sample counts.
package costmodel

// DefaultAlpha is the EWMA smoothing factor used when none is given:
// half the weight on the newest round, which tracks the strong
// round-to-round autocorrelation of region costs while still damping
// one-round noise spikes.
const DefaultAlpha = 0.5

// EWMA is the per-region cost estimator, fed one observation vector per
// round: an exponentially weighted moving average of each region's
// observed cost, est ← α·cost + (1−α)·est. It is deterministic — the
// virtual-time pipeline replays rounds bit-identically, so it consults
// no wall clock and no randomness of its own.
type EWMA struct {
	alpha  float64
	est    []float64
	seen   []bool
	rounds int
}

// NewEWMA returns an EWMA model over n regions. alpha outside (0, 1]
// selects DefaultAlpha.
func NewEWMA(n int, alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &EWMA{
		alpha: alpha,
		est:   make([]float64, n),
		seen:  make([]bool, n),
	}
}

// Observe folds one round's measured per-region costs into the model.
// observed[i] reports whether region i actually executed this round
// (costs[i] is meaningless when false) — unobserved regions keep their
// previous estimate. The first observation of a region seeds the
// estimate directly (no decay from an arbitrary zero), later ones decay.
func (m *EWMA) Observe(costs []float64, observed []bool) {
	any := false
	for i := range m.est {
		if i >= len(costs) || i >= len(observed) || !observed[i] {
			continue
		}
		c := costs[i]
		if c < 0 {
			c = 0
		}
		if m.seen[i] {
			m.est[i] = m.alpha*c + (1-m.alpha)*m.est[i]
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

// Rounds is how many observation rounds the model has absorbed.
func (m *EWMA) Rounds() int { return m.rounds }

// Blend combines the model with a static fallback estimate: observed
// regions get the model's estimate, unobserved ones the static weight in
// the model's units. Static weights are rescaled by the ratio of
// the mean observed estimate to the mean static weight over observed
// regions, mapping the static estimator's unit (sample counts, ray
// costs) into the model's unit so a half-warm weight vector is
// commensurable. Degenerate scales (nothing observed yet, zero-mean
// static) fall back to a copy of static, or to the mean observed
// estimate when static is nil.
func (m *EWMA) Blend(static []float64) []float64 {
	n := len(m.est)
	out := make([]float64, n)
	var obsSum, statSum float64
	obsCount := 0
	for i := 0; i < n; i++ {
		if m.seen[i] {
			obsSum += m.est[i]
			obsCount++
			if static != nil && i < len(static) {
				statSum += static[i]
			}
		}
	}
	if obsCount == 0 {
		for i := 0; i < n; i++ {
			if static != nil && i < len(static) {
				out[i] = static[i]
			}
		}
		return out
	}
	meanObs := obsSum / float64(obsCount)
	scale := 1.0
	if static != nil && statSum > 0 {
		scale = obsSum / statSum
	}
	for i := 0; i < n; i++ {
		switch {
		case m.seen[i]:
			out[i] = m.est[i]
		case static != nil && i < len(static) && statSum > 0:
			out[i] = static[i] * scale
		default:
			out[i] = meanObs
		}
	}
	return out
}

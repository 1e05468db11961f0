package core

import (
	"math"
	"testing"
)

func TestCostModelEWMAObserve(t *testing.T) {
	m := newEWMA(3)
	if m.Rounds() != 0 {
		t.Fatalf("fresh model rounds = %d, want 0", m.Rounds())
	}
	if m.seen[0] {
		t.Fatal("fresh model claims an estimate")
	}

	// First observation seeds directly — no decay from zero — as cost
	// per unit; a region with no units is not observed.
	m.Observe([]float64{10, 40, 5}, []int{1, 2, 0})
	if e, ok := m.est[0], m.seen[0]; !ok || e != 10 {
		t.Fatalf("estimate 0 = %v,%v, want 10,true", e, ok)
	}
	if e, ok := m.est[1], m.seen[1]; !ok || e != 20 {
		t.Fatalf("estimate 1 = %v,%v, want 20 (40 over 2 units),true", e, ok)
	}
	if m.seen[2] {
		t.Fatal("region with no units claims an estimate")
	}
	if m.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", m.Rounds())
	}

	// Second observation decays: 0.5*20 + 0.5*10 = 15.
	m.Observe([]float64{20, 20, 30}, []int{1, 0, 1})
	if e := m.est[0]; e != 15 {
		t.Fatalf("estimate 0 after decay = %v, want 15", e)
	}
	// Unobserved region keeps its previous estimate.
	if e := m.est[1]; e != 20 {
		t.Fatalf("estimate 1 unchanged = %v, want 20", e)
	}
	if e, ok := m.est[2], m.seen[2]; !ok || e != 30 {
		t.Fatalf("estimate 2 seeded = %v,%v, want 30,true", e, ok)
	}
	if m.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", m.Rounds())
	}

	// A phase in which no region had units is no observation.
	m.Observe([]float64{1, 1, 1}, []int{0, 0, 0})
	if m.Rounds() != 2 {
		t.Fatalf("rounds after an empty phase = %d, want 2", m.Rounds())
	}
}

// TestCostModelPerUnit: a half-warm model's cost per unit is the
// estimate where a region was observed and the mean observed estimate
// elsewhere.
func TestCostModelPerUnit(t *testing.T) {
	m := newEWMA(4)
	m.Observe([]float64{20, 40, 0, 0}, []int{1, 1, 0, 0})
	got := m.PerUnit()
	want := []float64{20, 40, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("half-warm PerUnit = %v, want %v", got, want)
		}
	}
}

// TestCostModelTracksDrift pins the point of the EWMA over a last-value
// model: a one-round noise spike moves the estimate only alpha of the
// way, while a sustained level change converges geometrically.
func TestCostModelTracksDrift(t *testing.T) {
	m := newEWMA(1)
	one := []int{1}
	m.Observe([]float64{100}, one)
	m.Observe([]float64{1000}, one) // spike
	if e := m.est[0]; e != 550 {
		t.Fatalf("post-spike estimate = %v, want 550", e)
	}
	for i := 0; i < 20; i++ {
		m.Observe([]float64{200}, one) // new sustained level
	}
	if e := m.est[0]; math.Abs(e-200) > 1 {
		t.Fatalf("converged estimate = %v, want ~200", e)
	}
}

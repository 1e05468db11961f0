package costmodel

import (
	"math"
	"testing"
)

func TestCostModelEWMAObserve(t *testing.T) {
	m := NewEWMA(3, 0.5)
	if m.Rounds() != 0 {
		t.Fatalf("fresh model rounds = %d, want 0", m.Rounds())
	}
	if m.seen[0] {
		t.Fatal("fresh model claims an estimate")
	}

	// First observation seeds directly — no decay from zero.
	m.Observe([]float64{10, 20, 0}, []bool{true, true, false})
	if e, ok := m.est[0], m.seen[0]; !ok || e != 10 {
		t.Fatalf("estimate 0 = %v,%v, want 10,true", e, ok)
	}
	if e, ok := m.est[1], m.seen[1]; !ok || e != 20 {
		t.Fatalf("estimate 1 = %v,%v, want 20,true", e, ok)
	}
	if m.seen[2] {
		t.Fatal("unobserved region claims an estimate")
	}
	if m.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", m.Rounds())
	}

	// Second observation decays: 0.5*20 + 0.5*10 = 15.
	m.Observe([]float64{20, 20, 30}, []bool{true, false, true})
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

	// A bad alpha falls back to the default.
	if a := NewEWMA(2, -1).alpha; a != DefaultAlpha {
		t.Fatalf("alpha fallback = %v, want %v", a, DefaultAlpha)
	}
}

func TestCostModelBlendColdStart(t *testing.T) {
	m := NewEWMA(4, 0.5)
	static := []float64{1, 2, 3, 4}

	// Fully cold: Blend is a copy of static.
	got := m.Blend(static)
	for i, w := range static {
		if got[i] != w {
			t.Fatalf("cold Blend = %v, want %v", got, static)
		}
	}

	// Half warm: regions 0,1 observed at mean 30; static mean over the
	// observed regions is (1+2)/2, so unobserved static weights scale by
	// 60/3 = 20 to land in observed units.
	m.Observe([]float64{20, 40, 0, 0}, []bool{true, true, false, false})
	got = m.Blend(static)
	want := []float64{20, 40, 3 * 20, 4 * 20}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("half-warm Blend = %v, want %v", got, want)
		}
	}

	// Nil static: unobserved regions get the mean observed estimate.
	got = m.Blend(nil)
	want = []float64{20, 40, 30, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("nil-static Blend = %v, want %v", got, want)
		}
	}

	// Zero-mean static degenerates to the copy path, not a divide by zero.
	zero := []float64{0, 0, 0, 0}
	got = m.Blend(zero)
	want = []float64{20, 40, 30, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("zero-static Blend = %v, want %v", got, want)
		}
	}
}

// TestCostModelTracksDrift pins the point of the EWMA over a last-value
// model: a one-round noise spike moves the estimate only alpha of the
// way, while a sustained level change converges geometrically.
func TestCostModelTracksDrift(t *testing.T) {
	m := NewEWMA(1, 0.5)
	all := []bool{true}
	m.Observe([]float64{100}, all)
	m.Observe([]float64{1000}, all) // spike
	if e := m.est[0]; e != 550 {
		t.Fatalf("post-spike estimate = %v, want 550", e)
	}
	for i := 0; i < 20; i++ {
		m.Observe([]float64{200}, all) // new sustained level
	}
	if e := m.est[0]; math.Abs(e-200) > 1 {
		t.Fatalf("converged estimate = %v, want ~200", e)
	}
}

package balancebench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBalanceBenchDeterministicCostProfile: the virtual-time benchmark
// is bit-stable — two runs of the same config serialize identically, so
// the CI gate never sees noise.
func TestBalanceBenchDeterministicCostProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 2 // keep the test cheap; determinism is round-count independent
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two identical runs serialized differently")
	}

	if len(a.Phases) == 0 {
		t.Fatal("no per-phase rows")
	}
	if a.ConstructCVMean <= 0 {
		t.Fatal("construct CV not populated")
	}
	if a.UtilizationMean <= 0 || a.UtilizationMean > 1 {
		t.Fatalf("mean utilization %.4f outside (0, 1]", a.UtilizationMean)
	}
	if a.ImbalanceMax < 1 {
		t.Fatalf("max imbalance %.4f below 1", a.ImbalanceMax)
	}
	if a.MigratedRegions == 0 {
		t.Fatal("repartitioning benchmark migrated no regions")
	}
	if a.CostModel != "observed" || a.Rebalance != "diffusive" || a.Strategy != "repartition" {
		t.Fatalf("unexpected config echo: %s/%s/%s", a.Strategy, a.CostModel, a.Rebalance)
	}
}

// TestBalanceGateRebalanceRegression: the gate passes on an identical
// result and reports every violated threshold on a degraded one.
func TestBalanceGateRebalanceRegression(t *testing.T) {
	base := Result{
		ConstructCVMean:  0.10,
		UtilizationMean:  0.90,
		TotalVirtualTime: 100,
	}
	if err := Check(base, base); err != nil {
		t.Fatalf("identical result failed the gate: %v", err)
	}

	within := base
	within.ConstructCVMean = 0.105
	within.UtilizationMean = 0.87
	within.TotalVirtualTime = 105
	if err := Check(within, base); err != nil {
		t.Fatalf("within-threshold result failed: %v", err)
	}

	bad := base
	bad.ConstructCVMean = 0.15
	bad.UtilizationMean = 0.80
	bad.TotalVirtualTime = 150
	err := Check(bad, base)
	if err == nil {
		t.Fatal("degraded result passed the gate")
	}
	for _, want := range []string{"construct CV", "utilization", "virtual time"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("gate error missing %q violation:\n%v", want, err)
		}
	}
}

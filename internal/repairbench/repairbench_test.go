package repairbench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The virtual-time benchmark is bit-stable: two runs of the same config
// serialize identically, so the CI gate never sees noise.
func TestRepairBenchDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Steps = 2 // keep the test cheap; determinism is step-count independent
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("two identical runs serialized differently")
	}
}

// Repair must beat rebuild on both scripted scenarios — the acceptance
// contract the CI gate enforces.
func TestRepairBeatsRebuild(t *testing.T) {
	for _, scenario := range []string{"warehouse-forklift", "door"} {
		cfg := DefaultConfig()
		cfg.Scenario = scenario
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		if len(r.Steps) != cfg.Steps {
			t.Fatalf("%s: %d steps, want %d", scenario, len(r.Steps), cfg.Steps)
		}
		if r.RepairTotal >= r.RebuildTotal {
			t.Fatalf("%s: repair total %.2f not below rebuild total %.2f",
				scenario, r.RepairTotal, r.RebuildTotal)
		}
		if r.SpeedupMean < 1 {
			t.Fatalf("%s: mean speedup %.2fx below 1", scenario, r.SpeedupMean)
		}
		if err := Check(r, nil); err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
	}
}

// The gate trips on a genuine regression and stays quiet otherwise.
func TestRepairGate(t *testing.T) {
	base := Result{RepairTotal: 100, SpeedupMean: 5}
	good := Result{RepairTotal: 105, SpeedupMean: 4}
	if err := Check(good, &base); err != nil {
		t.Fatalf("good run tripped the gate: %v", err)
	}
	slow := Result{RepairTotal: 150, SpeedupMean: 0.8}
	err := Check(slow, &base)
	if err == nil {
		t.Fatal("regressed run passed the gate")
	}
}

package work

import (
	"math"
	"testing"

	"parmp/internal/cspace"
)

func TestTimeLinear(t *testing.T) {
	m := DefaultCostModel()
	c := cspace.Counters{CDCalls: 10, CDObstacle: 4, LPCalls: 2, LPSteps: 20, KNNQueries: 1, KNNEvals: 50, Samples: 5}
	want := 10*m.CDCall + 4*m.CDObstacle + 2*m.LPCall + 20*m.LPStep + 1*m.KNNQuery + 50*m.KNNEval + 5*m.Sample
	if got := m.Time(c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Time = %v, want %v", got, want)
	}
	// Additivity.
	var c2 cspace.Counters
	c2.Add(c)
	c2.Add(c)
	if math.Abs(m.Time(c2)-2*want) > 1e-9 {
		t.Fatal("Time not additive")
	}
}

func TestTimeZero(t *testing.T) {
	if DefaultCostModel().Time(cspace.Counters{}) != 0 {
		t.Fatal("zero counters should cost zero")
	}
}

func TestLatencyNodeStructure(t *testing.T) {
	p := Hopper()
	if p.Latency(0, 23) != p.LatencyLocal {
		t.Fatal("same-node latency should be local")
	}
	if p.Latency(0, 24) != p.LatencyRemote {
		t.Fatal("cross-node latency should be remote")
	}
	if p.Latency(25, 47) != p.LatencyLocal {
		t.Fatal("second node internal latency should be local")
	}
}

func TestLatencyDegenerateProfile(t *testing.T) {
	p := MachineProfile{LatencyLocal: 5}
	if p.Latency(0, 99) != 5 {
		t.Fatal("zero CoresPerNode should use local latency")
	}
}

func TestBarrierGrowth(t *testing.T) {
	p := Hopper()
	if p.Barrier(1) != 0 {
		t.Fatal("single-proc barrier should be free")
	}
	b2 := p.Barrier(2)
	b1024 := p.Barrier(1024)
	if b2 <= 0 || b1024 <= b2 {
		t.Fatalf("barrier not growing: %v %v", b2, b1024)
	}
	if math.Abs(b1024-10*p.BarrierPerLog) > 1e-9 {
		t.Fatalf("barrier(1024) = %v, want %v", b1024, 10*p.BarrierPerLog)
	}
}

func TestProfilesDistinct(t *testing.T) {
	h, o := Hopper(), OpteronCluster()
	if h.LatencyRemote >= o.LatencyRemote {
		t.Fatal("Hopper interconnect should be faster than commodity cluster")
	}
	if h.CoresPerNode <= o.CoresPerNode {
		t.Fatal("XE6 nodes are wider")
	}
}

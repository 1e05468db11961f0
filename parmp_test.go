package parmp

import (
	"strings"
	"testing"
)

func TestPublicPRMPipeline(t *testing.T) {
	e := EnvironmentByName("med-cube")
	if e == nil {
		t.Fatal("med-cube missing")
	}
	space := NewPointSpace(e)
	snap, err := PlanPRM(space, Options{
		Procs:            8,
		Regions:          64,
		SamplesPerRegion: 10,
		Strategy:         Repartition,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.PRM().Roadmap.NumNodes() == 0 {
		t.Fatal("empty roadmap")
	}
	start, goal := V(0.05, 0.05, 0.05), V(0.95, 0.95, 0.95)
	path, ok := snap.Query(start, goal, 8)
	if !ok {
		t.Fatal("query failed in med-cube")
	}
	if len(path) < 2 {
		t.Fatalf("path too short: %d", len(path))
	}
}

func TestPublicRRTPipeline(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("mixed-30"))
	snap, err := PlanRRT(space, V(0.5, 0.5, 0.5), Options{
		Procs:          4,
		Regions:        24,
		NodesPerRegion: 8,
		Radius:         0.4,
		Policy:         Diffusive(),
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.RRT().TotalNodes(); n < 24 {
		t.Fatalf("tree too small: %d", n)
	}
}

func TestPublicStealPolicies(t *testing.T) {
	if RandK(8).Name() != "rand-8" {
		t.Fatal("RandK name")
	}
	if Diffusive().Name() != "diffusive" {
		t.Fatal("Diffusive name")
	}
	if Hybrid(8).Name() != "hybrid" {
		t.Fatal("Hybrid name")
	}
}

// StrategyByName knows the five names the CLIs and the serving tier
// document, and only those. A steal policy's name steals from the naive
// partition: the policy alone turns stealing on.
func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]struct {
		strategy Strategy
		policy   string
	}{
		"none": {NoLB, ""}, "repartition": {Repartition, ""},
		"hybrid": {NoLB, "hybrid"}, "rand-8": {NoLB, "rand-8"}, "diffusive": {NoLB, "diffusive"},
	} {
		strategy, policy, err := StrategyByName(name)
		if err != nil || strategy != want.strategy || (policy == nil) != (want.policy == "") || (policy != nil && policy.Name() != want.policy) {
			t.Fatalf("StrategyByName(%q) = %v, %v, %v", name, strategy, policy, err)
		}
	}
	for _, name := range []string{"", "diff", "stealing"} {
		if _, _, err := StrategyByName(name); err == nil {
			t.Fatalf("StrategyByName(%q) accepted", name)
		}
	}
}

func TestPublicProfiles(t *testing.T) {
	if HopperProfile().Name != "hopper" || OpteronProfile().Name != "opteron-cluster" {
		t.Fatal("profile names wrong")
	}
}

func TestPublicEnvironments(t *testing.T) {
	for _, name := range EnvironmentNames() {
		if EnvironmentByName(name) == nil {
			t.Fatalf("environment %q missing", name)
		}
	}
	if EnvironmentByName("atlantis") != nil {
		t.Fatal("unknown environment should be nil")
	}
}

func TestPublicRigidBodyAndLinkageSpaces(t *testing.T) {
	rb := NewRigidBodySpace(EnvironmentByName("med-cube"), 0.02, 0.02, 0.02)
	if rb.Dim() != 6 {
		t.Fatalf("rigid body dim = %d", rb.Dim())
	}
	link := NewLinkageSpace(EnvironmentByName("maze-2d"), V(0.1, 0.5), 0.2, 0.2, 0.2)
	if link.Dim() != 3 {
		t.Fatalf("linkage dim = %d", link.Dim())
	}
}

func TestPublicSE2AndParse(t *testing.T) {
	e, err := ParseEnvironment(strings.NewReader("bounds 0 0 1 1\nbox 0.4 0.4 0.6 0.6\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSE2Space(e, 0.05, 0.02)
	if s.Dim() != 3 {
		t.Fatalf("SE2 dim = %d", s.Dim())
	}
	if _, err := ParseEnvironment(strings.NewReader("box 0 0 1 1\n")); err == nil {
		t.Fatal("invalid environment text should fail")
	}
}

func TestPublicSamplersAndShortcut(t *testing.T) {
	e := EnvironmentByName("med-cube")
	space := NewPointSpace(e)
	opts := Options{
		Procs: 4, Regions: 48, SamplesPerRegion: 12, Seed: 5,
		Sampler: MixedSampler(UniformSampler(), GaussianSampler(0.05), 0.3),
	}
	snap, err := PlanPRM(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PRM().Roadmap.NumNodes() == 0 {
		t.Fatal("no nodes with mixed sampler")
	}
	path := []Config{V(0.05, 0.05, 0.05), V(0.05, 0.95, 0.05), V(0.95, 0.95, 0.95)}
	short := ShortcutPath(space, path, 30, 1)
	if PathLength(space, short) > PathLength(space, path) {
		t.Fatal("shortcut lengthened the path")
	}
	if BridgeSampler(0.1).Name() != "bridge" {
		t.Fatal("bridge sampler name")
	}
}

func TestPublicRRTStarAndExtract(t *testing.T) {
	space := NewPointSpace(EnvironmentByName("free"))
	root := V(0.5, 0.5, 0.5)
	snap, err := PlanRRT(space, root, Options{
		Procs: 4, Regions: 24, NodesPerRegion: 15, Radius: 0.45,
		Star: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.RRT().Rewires == 0 {
		t.Fatal("RRT* should rewire in free space")
	}
	path, ok := snap.Query(root, V(0.6, 0.55, 0.5), 1)
	if !ok || len(path) < 2 {
		t.Fatalf("extract failed: ok=%v len=%d", ok, len(path))
	}
}

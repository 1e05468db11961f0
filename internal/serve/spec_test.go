package serve

import (
	"strings"
	"testing"

	"parmp"
)

func TestSpecCanonicalKey(t *testing.T) {
	// Every way of writing the same planning problem must land on the
	// same tenant key.
	base, err := Spec{Env: "med-cube"}.Canonical(3)
	if err != nil {
		t.Fatal(err)
	}
	same := []Spec{
		{Env: "MED-CUBE"},
		{Env: " med-cube "},
		{Env: "med-cube", Robot: "point", Planner: "prm"},
		{Env: "med-cube", Procs: 8, Samples: 16, Seed: 1, Strategy: "repartition", Rounds: 3},
	}
	for i, sp := range same {
		c, err := sp.Canonical(3)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if c.Key() != base.Key() {
			t.Fatalf("spec %d key %q != base %q", i, c.Key(), base.Key())
		}
	}
	diff := []Spec{
		{Env: "small-cube"},
		{Env: "med-cube", Seed: 2},
		{Env: "med-cube", Samples: 32},
		{Env: "med-cube", Strategy: "none"},
		{Env: "med-cube", Rounds: 5},
		{EnvText: "name x\nbounds 0 0 0 1 1 1\n"},
	}
	for i, sp := range diff {
		c, err := sp.Canonical(3)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if c.Key() == base.Key() {
			t.Fatalf("spec %d unexpectedly shares the base key", i)
		}
	}
}

func TestSpecCanonicalErrors(t *testing.T) {
	bad := []struct {
		name string
		sp   Spec
		want string
	}{
		{"no env", Spec{}, "exactly one"},
		{"both envs", Spec{Env: "med-cube", EnvText: "bounds 0 0 1 1"}, "exactly one"},
		{"unknown env", Spec{Env: "nope"}, "unknown environment"},
		{"unknown planner", Spec{Env: "med-cube", Planner: "prm*"}, "unknown planner"},
		{"rrt without root", Spec{Env: "med-cube", Planner: "rrt"}, "requires root"},
		{"rrtconnect without goal", Spec{Env: "med-cube", Planner: "rrtconnect", Root: []float64{0.5, 0.5, 0.5}}, "requires root and goal"},
		{"unknown strategy", Spec{Env: "med-cube", Strategy: "magic"}, "unknown strategy"},
		{"unknown robot", Spec{Env: "med-cube", Robot: "blob"}, "unknown robot"},
		{"bad robot params", Spec{Env: "med-cube", Robot: "se2:0.1"}, "needs 2 half-extents"},
		{"negative half-extent", Spec{Env: "med-cube", Robot: "rigid:-1,1,1"}, "bad half-extent"},
		{"portfolio without query", Spec{Env: "med-cube", Portfolio: 2}, "requires root and goal"},
		{"procs over the limit", Spec{Env: "med-cube", Procs: 400000}, "procs 400000 exceeds the limit of 1024"},
		{"regions over the limit", Spec{Env: "med-cube", Regions: maxRegions + 1}, "regions 8193 exceeds the limit of 8192"},
		{"samples over the limit", Spec{Env: "med-cube", Samples: maxSamples + 1}, "samples 513 exceeds the limit of 512"},
		{"rounds over the limit", Spec{Env: "med-cube", Rounds: maxRounds + 1}, "rounds 65 exceeds the limit of 64"},
		{"portfolio over the limit", Spec{Env: "med-cube", Portfolio: maxPortfolio + 1, Root: []float64{0.1, 0.1, 0.1}, Goal: []float64{0.9, 0.9, 0.9}}, "portfolio 17 exceeds the limit of 16"},
		{"product over the limit", Spec{Env: "med-cube", Regions: maxRegions, Samples: maxSamples, Rounds: 2}, "= 8388608 sampling attempts exceeds the limit of 4194304"},
		{"default regions in the product", Spec{Env: "med-cube", Procs: maxProcs, Samples: maxSamples, Rounds: 2}, "= 8388608 sampling attempts exceeds the limit of 4194304"},
		{"racers in the product", Spec{Env: "med-cube", Regions: 128, Samples: 64, Rounds: maxRounds, Portfolio: maxPortfolio, Root: []float64{0.1, 0.1, 0.1}, Goal: []float64{0.9, 0.9, 0.9}}, "= 8388608 sampling attempts exceeds the limit of 4194304"},
		{"bad restart schedule", Spec{Env: "med-cube", Portfolio: 2, Root: []float64{0.1, 0.1, 0.1}, Goal: []float64{0.9, 0.9, 0.9}, Restarts: "fibonacci"}, "unknown restart schedule"},
	}
	for _, tc := range bad {
		if _, err := tc.sp.Canonical(3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// Canonical runs on every request, so validating the environment name
// must not build the world: its allocations are the same for the
// cheapest environment to construct and the dearest (11 / 662 / 735 per
// call when the check was EnvironmentByName(name) == nil).
func TestSpecCanonicalAllocsIndependentOfEnvironment(t *testing.T) {
	allocs := func(name string) float64 {
		sp := Spec{Env: name}
		return testing.AllocsPerRun(50, func() {
			if _, err := sp.Canonical(3); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs("med-cube")
	for _, name := range []string{"mixed", "corner-2d"} {
		if got := allocs(name); got != base {
			t.Errorf("Canonical allocates %v times for %q, %v for med-cube", got, name, base)
		}
	}
	_, err := Spec{Env: "atlantis"}.Canonical(3)
	if err == nil || !strings.Contains(err.Error(), strings.Join(parmp.EnvironmentNames(), ", ")) {
		t.Errorf("unknown environment: err = %v, want the list of known names", err)
	}
}

// Every field reaches its own limit in some tenant, and a product of
// exactly maxGrowWork is still one.
func TestSpecCanonicalAtLimits(t *testing.T) {
	root, goal := []float64{0.1, 0.1, 0.1}, []float64{0.9, 0.9, 0.9}
	for i, sp := range []Spec{
		{Env: "med-cube", Procs: maxProcs, Regions: maxRegions, Samples: maxSamples, Rounds: 1},
		{Env: "med-cube", Procs: 8, Regions: 64, Samples: 64, Rounds: maxRounds, Portfolio: maxPortfolio, Root: root, Goal: goal},
	} {
		c, err := sp.Canonical(3)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if c.Procs != sp.Procs || c.Regions != sp.Regions || c.Samples != sp.Samples || c.Rounds != sp.Rounds || c.Portfolio != sp.Portfolio {
			t.Fatalf("canonical spec %d at the limits moved a size: %+v", i, c)
		}
		if w := c.growWork(); w != maxGrowWork {
			t.Fatalf("spec %d: grow work %d, want exactly the limit %d", i, w, maxGrowWork)
		}
	}
}

func TestSpecBuildInlineEnv(t *testing.T) {
	sp, err := Spec{EnvText: "name inline\nbounds 0 0 0 1 1 1\nbox 0.4 0.4 0.4 0.6 0.6 0.6\n"}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sp.build()
	if err != nil {
		t.Fatal(err)
	}
	if dim := eng.Snapshot().PRM().RegionGraph.Region(0).Box.Dim(); dim != 3 {
		t.Fatalf("inline build subdivided a %dD space, want 3D", dim)
	}

	// A 3D environment cannot carry an SE(2) robot.
	sp2, err := Spec{EnvText: "bounds 0 0 0 1 1 1", Robot: "se2:0.05,0.05"}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp2.build(); err == nil || !strings.Contains(err.Error(), "2D environment") {
		t.Fatalf("se2-in-3D build err = %v", err)
	}
}

func TestSpecPortfolioCanonicalAndBuild(t *testing.T) {
	root, goal := []float64{0.05, 0.05, 0.05}, []float64{0.95, 0.95, 0.95}
	sp, err := Spec{Env: "walls", Portfolio: 2, Root: root, Goal: goal, Procs: 2, Regions: 16, Samples: 8}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Restarts != "luby" {
		t.Fatalf("Restarts = %q, want luby default", sp.Restarts)
	}
	// A PRM portfolio keeps its race query — unlike a plain PRM spec —
	// and the portfolio fields flow into the tenant key.
	if len(sp.Root) == 0 || len(sp.Goal) == 0 {
		t.Fatal("canonical portfolio spec dropped the race query")
	}
	plain, err := Spec{Env: "walls", Procs: 2, Regions: 16, Samples: 8}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Key() == plain.Key() {
		t.Fatal("portfolio spec shares a tenant with the plain spec")
	}
	none, err := Spec{Env: "walls", Portfolio: 2, Restarts: "none", Root: root, Goal: goal, Procs: 2, Regions: 16, Samples: 8}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	if none.Key() == sp.Key() {
		t.Fatal("restart schedule does not differentiate tenants")
	}
	// Restarts without Portfolio is not a distinct tenant.
	stray, err := Spec{Env: "walls", Restarts: "luby", Procs: 2, Regions: 16, Samples: 8}.Canonical(1)
	if err != nil {
		t.Fatal(err)
	}
	if stray.Key() != plain.Key() {
		t.Fatal("stray Restarts field leaked into the tenant key")
	}

	eng, err := sp.build()
	if err != nil {
		t.Fatal(err)
	}
	pf, ok := eng.(*parmp.Portfolio)
	if !ok {
		t.Fatalf("portfolio spec built %T, want *parmp.Portfolio", eng)
	}
	if st := pf.Stats(); st.Racers != 2 || st.Winner != -1 {
		t.Fatalf("fresh portfolio stats %+v", st)
	}
}

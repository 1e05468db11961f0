package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"parmp/internal/metrics"
)

// tiny returns a minimal scale so the whole figure set runs in seconds.
// One portfolio trial, not more: seeds 7 and 8 both censor the single
// configuration, at 4 s and 2.5 s of wall clock.
func tiny() Scale {
	return Scale{
		Name:             "tiny",
		ModelProcs:       []int{2, 4, 8},
		ModelImpProcs:    []int{4, 8},
		ModelGrid:        8,
		PRMProcs:         []int{4, 8},
		PRMHighProcs:     []int{8, 16},
		ProfileProcs:     8,
		RemoteProcs:      8,
		Fig9Procs:        [2]int{4, 16},
		OpteronProcs:     []int{4, 8},
		RRTProcs:         []int{2, 4},
		PRMRegions:       64,
		PRMHighRegions:   128,
		SamplesPerRegion: 16,
		RRTRegions:       32,
		NodesPerRegion:   6,
		Seed:             7,
		RaceSeeds:        2,
		RaceRounds:       4,
		PortfolioTrials:  1,
		RepartRounds:     2,
	}
}

// ran memoizes tables: every entry runs once per test binary, however
// many tests read it.
var ran = map[string][]*metrics.Table{}

// tables returns entry id's tables at the tiny scale.
func tables(t *testing.T, id string) []*metrics.Table {
	t.Helper()
	if _, done := ran[id]; !done {
		tbs, ok := ByName(id, tiny())
		if !ok || len(tbs) == 0 {
			t.Fatalf("ByName(%q) failed", id)
		}
		ran[id] = tbs
	}
	return ran[id]
}

// table returns the one table of a single-table entry.
func table(t *testing.T, id string) *metrics.Table {
	t.Helper()
	tbs := tables(t, id)
	if len(tbs) != 1 {
		t.Fatalf("%s: %d tables, want 1", id, len(tbs))
	}
	return tbs[0]
}

func TestScaleByName(t *testing.T) {
	if sc, ok := ScaleByName("quick"); !ok || sc.Name != "quick" {
		t.Fatal("quick scale lookup failed")
	}
	if sc, ok := ScaleByName("full"); !ok || sc.Name != "full" {
		t.Fatal("full scale lookup failed")
	}
	if _, ok := ScaleByName("huge"); ok {
		t.Fatal("unknown scale should fail")
	}
}

func TestFig4aShape(t *testing.T) {
	tb := table(t, "fig4a")
	if len(tb.XS) != 3 || len(tb.Columns) != 4 {
		t.Fatalf("shape: %d rows %d cols", len(tb.XS), len(tb.Columns))
	}
	naive := tb.Column("model-imbalance")
	best := tb.Column("model-improvement")
	for i := range naive {
		if best[i] > naive[i]+1e-9 {
			t.Fatalf("row %d: best CV %v above naive %v", i, best[i], naive[i])
		}
	}
	// Experimental imbalance should track the model within a loose factor.
	expCV := tb.Column("experimental-imbalance")
	for i := range expCV {
		if naive[i] > 0.05 && expCV[i] <= 0 {
			t.Fatalf("row %d: experiment shows no imbalance while model does", i)
		}
	}
}

func TestFig4bShape(t *testing.T) {
	tb := table(t, "fig4b")
	theo := tb.Column("theoretical-pct")
	exp := tb.Column("experimental-pct")
	run := tb.Column("runtime-pct")
	for i := range theo {
		if theo[i] < 0 || theo[i] > 100 || exp[i] < 0 || exp[i] > 100 || run[i] < 0 || run[i] > 100 {
			t.Fatalf("row %d: percentages out of range: %v %v %v", i, theo[i], exp[i], run[i])
		}
	}
	// At low proc counts improvement must be genuinely positive.
	if theo[0] <= 0 || exp[0] <= 0 {
		t.Fatalf("first row should show improvement: theo=%v exp=%v", theo[0], exp[0])
	}
}

func TestFig5aShapes(t *testing.T) {
	tb := table(t, "fig5a")
	noLB := tb.Column("without-lb")
	rp := tb.Column("repartitioning")
	hybrid := tb.Column("hybrid-ws")
	for i := range noLB {
		// Load balancing should never be dramatically worse than the
		// baseline in the imbalanced med-cube.
		if rp[i] > noLB[i]*1.1 {
			t.Fatalf("row %d: repartitioning %v much worse than noLB %v", i, rp[i], noLB[i])
		}
		if hybrid[i] > noLB[i]*1.2 {
			t.Fatalf("row %d: hybrid %v much worse than noLB %v", i, hybrid[i], noLB[i])
		}
	}
	// At the lowest processor count repartitioning must win clearly.
	if rp[0] >= noLB[0] {
		t.Fatalf("repartitioning should beat noLB at low P: %v vs %v", rp[0], noLB[0])
	}
}

func TestFig5bCVDrops(t *testing.T) {
	tb := table(t, "fig5b")
	before := tb.Column("before-repartitioning")
	after := tb.Column("after-repartitioning")
	for i := range before {
		if after[i] > before[i]+1e-9 {
			t.Fatalf("row %d: CV after %v above before %v", i, after[i], before[i])
		}
	}
	if before[0] <= 0 {
		t.Fatal("med-cube should show imbalance before repartitioning")
	}
}

func TestFig5cProfile(t *testing.T) {
	sc := tiny()
	tb := table(t, "fig5c")
	if len(tb.XS) != sc.ProfileProcs {
		t.Fatalf("rows = %d, want %d", len(tb.XS), sc.ProfileProcs)
	}
	noLB := tb.Column("without-lb")
	rp := tb.Column("repartitioning")
	ideal := tb.Column("ideal")
	// Profiles are sorted descending; spread of noLB must exceed spread
	// of repartitioned; ideal is flat.
	if noLB[0]-noLB[len(noLB)-1] <= rp[0]-rp[len(rp)-1] {
		t.Fatalf("repartitioning should flatten the profile: noLB spread %v, rp spread %v",
			noLB[0]-noLB[len(noLB)-1], rp[0]-rp[len(rp)-1])
	}
	for i := 1; i < len(ideal); i++ {
		if ideal[i] != ideal[0] {
			t.Fatal("ideal profile must be flat")
		}
	}
}

func TestFig6HighScale(t *testing.T) {
	tb := table(t, "fig6")
	noLB := tb.Column("without-lb")
	rp := tb.Column("repartitioning")
	if rp[0] >= noLB[0] {
		t.Fatalf("repartitioning should win at %v procs: %v vs %v", tb.XS[0], rp[0], noLB[0])
	}
}

func TestFig7aBreakdown(t *testing.T) {
	tb := table(t, "fig7a")
	if len(tb.XS) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(tb.XS))
	}
	nc := tb.Column("node-connection")
	// Node connection dominates the baseline run (paper: ~90%).
	rc := tb.Column("region-connection")
	other := tb.Column("other")
	frac := nc[0] / (nc[0] + rc[0] + other[0])
	if frac < 0.5 {
		t.Fatalf("node connection should dominate the no-LB run, got fraction %v", frac)
	}
	// Load-balanced rows should cut node connection vs row 0 (no-lb).
	if nc[1] >= nc[0] {
		t.Fatalf("repartitioning should cut node connection: %v vs %v", nc[1], nc[0])
	}
}

func TestFig7bRemoteAccesses(t *testing.T) {
	tb := table(t, "fig7b")
	region := tb.Column("region-graph")
	roadmap := tb.Column("roadmap-graph")
	// Row 0 = no-lb, row 1 = repartitioning: repartitioning increases
	// remote accesses (paper Fig 7(b)).
	if region[1] <= region[0] {
		t.Fatalf("repartitioning should raise region-graph remote accesses: %v vs %v", region[1], region[0])
	}
	if roadmap[1] <= roadmap[0] {
		t.Fatalf("repartitioning should raise roadmap remote accesses: %v vs %v", roadmap[1], roadmap[0])
	}
}

func TestFig8ThreeEnvironments(t *testing.T) {
	tbs := tables(t, "fig8")
	if len(tbs) != 3 {
		t.Fatalf("tables = %d", len(tbs))
	}
	// med-cube: repartitioning wins at low P. free: nothing loses badly.
	med := tbs[0]
	if med.Column("repartitioning")[0] >= med.Column("without-lb")[0] {
		t.Fatal("med-cube repartitioning should win")
	}
	free := tbs[2]
	noLB := free.Column("without-lb")
	for _, col := range []string{"repartitioning", "hybrid-ws", "rand-8-ws"} {
		vals := free.Column(col)
		for i := range vals {
			if vals[i] > noLB[i]*1.35 {
				t.Fatalf("free env: %s row %d overhead too high: %v vs %v", col, i, vals[i], noLB[i])
			}
		}
	}
}

func TestFig9TaskDistribution(t *testing.T) {
	tbs := tables(t, "fig9")
	if len(tbs) != 2 {
		t.Fatalf("tables = %d", len(tbs))
	}
	for ti, tb := range tbs {
		stolen := tb.Column("stolen")
		local := tb.Column("non-stolen")
		totalStolen, totalLocal := metrics.Sum(stolen), metrics.Sum(local)
		if totalLocal <= 0 {
			t.Fatalf("table %d: no local tasks", ti)
		}
		if totalStolen < 0 {
			t.Fatalf("table %d: negative stolen count", ti)
		}
	}
	// Paper: "at higher processor counts ... few processors are able to
	// find work once they have exhausted their local regions" — the
	// per-processor count of executed stolen tasks shrinks under strong
	// scaling (Fig 9(b) vs 9(a)).
	perProcLow := metrics.Mean(tbs[0].Column("stolen"))
	perProcHigh := metrics.Mean(tbs[1].Column("stolen"))
	if perProcHigh > perProcLow {
		t.Fatalf("stolen tasks per proc should shrink with P: low=%v high=%v", perProcLow, perProcHigh)
	}
}

func TestFig10RRT(t *testing.T) {
	tbs := tables(t, "fig10")
	if len(tbs) != 3 {
		t.Fatalf("tables = %d", len(tbs))
	}
	mixed := tbs[0]
	noLB := mixed.Column("without-lb")
	diff := mixed.Column("diffusive-ws")
	// In the heavily blocked mixed env, diffusive stealing should help at
	// low P (paper: 2.0x at 32 cores).
	if diff[0] >= noLB[0] {
		t.Fatalf("diffusive should beat noLB in mixed at low P: %v vs %v", diff[0], noLB[0])
	}
	// Free environment: no strategy catastrophically worse.
	free := tbs[2]
	freeNoLB := free.Column("without-lb")
	for _, col := range []string{"hybrid-ws", "rand-8-ws", "diffusive-ws"} {
		vals := free.Column(col)
		for i := range vals {
			if vals[i] > freeNoLB[i]*1.35 {
				t.Fatalf("free env %s row %d overhead: %v vs %v", col, i, vals[i], freeNoLB[i])
			}
		}
	}
}

// TestByNameCoversAll runs every registry entry once (shared with the
// shape tests through tables) and checks each table says what its
// entry's kind promises.
func TestByNameCoversAll(t *testing.T) {
	for _, e := range registry {
		for _, tb := range tables(t, e.id) {
			if tb.Title == "" || len(tb.XS) == 0 {
				t.Fatalf("%s: empty table", e.id)
			}
			// A figure's tables are titled "Fig ...", an ablation's
			// "Ablation: ...", a race's end "wall clock)", a study's
			// none of these.
			if strings.HasPrefix(tb.Title, "Fig ") != (e.kind == figure) ||
				strings.HasPrefix(tb.Title, "Ablation: ") != (e.kind == ablation) ||
				strings.HasSuffix(tb.Title, "wall clock)") != (e.kind == race) {
				t.Fatalf("%s: kind %d but title %q", e.id, e.kind, tb.Title)
			}
		}
	}
	if _, ok := ByName("fig99", tiny()); ok {
		t.Fatal("unknown experiment should fail")
	}
}

func ids(es []entry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.id)
	}
	return out
}

// TestRegistry pins what is derived from the registry: the id list (CLI
// help text) and the two groups' members and order.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Names() {
		if seen[id] {
			t.Fatalf("id %q listed twice", id)
		}
		seen[id] = true
	}
	figs := []string{"fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig6",
		"fig7a", "fig7b", "fig8", "fig9", "fig10"}
	abls := []string{"ablation-decomposition", "ablation-stealchunk", "ablation-weights",
		"ablation-partitioner", "ablation-victims", "ablation-rrtstar"}
	// The studies close the registry, so "all" — listed after its last
	// member — stays the last id.
	studies := []string{"repartition", "balance", "repair"}
	wantNames := slices.Concat(figs, abls, []string{"ablations", "planners", "portfolio"}, studies, []string{"all"})
	if got := Names(); !slices.Equal(got, wantNames) {
		t.Fatalf("Names() = %v, want %v", got, wantNames)
	}
	if got, want := ids(lookup("all")), slices.Concat(figs, studies); !slices.Equal(got, want) {
		t.Fatalf("all = %v, want %v", got, want)
	}
	if got := ids(lookup("ablations")); !slices.Equal(got, abls) {
		t.Fatalf("ablations = %v, want %v", got, abls)
	}
	if got := lookup("fig99"); got != nil {
		t.Fatalf("unknown id resolved to %v", ids(got))
	}
}

var update = flag.Bool("update", false, "rewrite testdata/tiny.golden from this run")

// counts picks the solve tallies out of a race table's notes.
var counts = regexp.MustCompile(`(solved |censored=)\d+/\d+`)

// TestTinyGolden compares everything bit-stable the harness prints at the
// tiny scale, byte for byte, with testdata/tiny.golden (written at commit
// 35bf5e0, before the registry; the balance and repair tables added when
// those two gates became studies): the CSV of every table of "all" and
// "ablations", and of the two races what does not depend on the clock —
// shape, path lengths and solve tallies, with the *-ms columns dropped.
func TestTinyGolden(t *testing.T) {
	var b bytes.Buffer
	for _, e := range slices.Concat(lookup("all"), lookup("ablations"), lookup("planners"), lookup("portfolio")) {
		for _, tb := range tables(t, e.id) {
			fmt.Fprintf(&b, "# %s\n", tb.Title)
			if err := stable(tb).WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			for _, n := range tb.Notes {
				if m := counts.FindString(n); m != "" {
					fmt.Fprintf(&b, "# %s\n", m)
				}
			}
			b.WriteByte('\n')
		}
	}
	const path = "testdata/tiny.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("tables differ from %s (rerun with -update after an intended change):\n%s", path, b.Bytes())
	}
}

// stable returns tb without its wall-clock (*-ms) columns.
func stable(tb *metrics.Table) *metrics.Table {
	out := &metrics.Table{Title: tb.Title, XLabel: tb.XLabel, XS: tb.XS, Rows: make([][]float64, len(tb.Rows))}
	for c, name := range tb.Columns {
		if strings.HasSuffix(name, "-ms") {
			continue
		}
		out.Columns = append(out.Columns, name)
		for r := range tb.Rows {
			out.Rows[r] = append(out.Rows[r], tb.Rows[r][c])
		}
	}
	return out
}

// TestBalanceContract: the closed-loop run is a balanced one — every
// phase's ratios are in range and the balancer actually moved regions.
// The numbers themselves are held by TestTinyGolden.
func TestBalanceContract(t *testing.T) {
	tbs := tables(t, "balance")
	if len(tbs) != 2 {
		t.Fatalf("tables = %d, want profile and summary", len(tbs))
	}
	prof, sum := tbs[0], tbs[1]
	if len(prof.XS) != balanceRounds*3 {
		t.Fatalf("%d phase rows, want %d rounds of sample / construct / region-connect", len(prof.XS), balanceRounds)
	}
	for i, u := range prof.Column("utilization") {
		if u <= 0 || u > 1 {
			t.Fatalf("row %d: utilization %.4f outside (0, 1]", i, u)
		}
	}
	for i, f := range prof.Column("imbalance") {
		if f < 1 {
			t.Fatalf("row %d: imbalance %.4f below 1", i, f)
		}
	}
	if cv := sum.Column("construct-cv")[0]; cv <= 0 {
		t.Fatalf("construct CV %.4f not populated", cv)
	}
	if sum.Column("migrated")[0] == 0 {
		t.Fatal("the closed loop migrated no regions")
	}
}

// TestRepairBeatsRebuild: repair must beat rebuild on both scripted
// scenarios — the contract the repair study exists to show.
func TestRepairBeatsRebuild(t *testing.T) {
	tbs := tables(t, "repair")
	if len(tbs) != 2 {
		t.Fatalf("tables = %d, want warehouse-forklift and door", len(tbs))
	}
	for _, tb := range tbs {
		if len(tb.XS) != repairSteps {
			t.Fatalf("%s: %d steps, want %d", tb.Title, len(tb.XS), repairSteps)
		}
		repair, rebuild := metrics.Sum(tb.Column("repair-makespan")), metrics.Sum(tb.Column("rebuild-makespan"))
		if repair >= rebuild {
			t.Fatalf("%s: repair total %.2f not below rebuild total %.2f", tb.Title, repair, rebuild)
		}
		if mean := metrics.Mean(tb.Column("speedup")); mean < 1 {
			t.Fatalf("%s: mean speedup %.2fx below 1", tb.Title, mean)
		}
	}
}

func TestAblationDecompositionGranularityBound(t *testing.T) {
	tb := table(t, "ablation-decomposition")
	noLB := tb.Column("without-lb")
	rp := tb.Column("repartitioning")
	// At 1 region/proc no balancer can improve anything.
	if rp[0] < noLB[0]*0.99 {
		t.Fatalf("1 region/proc should be unbalanceable: %v vs %v", rp[0], noLB[0])
	}
	// At the largest decomposition repartitioning must win.
	last := len(noLB) - 1
	if rp[last] >= noLB[last] {
		t.Fatalf("high decomposition should benefit: %v vs %v", rp[last], noLB[last])
	}
}

func TestAblationPartitionerTradeoff(t *testing.T) {
	tb := table(t, "ablation-partitioner")
	nc := tb.Column("node-connection")
	rc := tb.Column("region-connection")
	cut := tb.Column("edge-cut")
	// LPT (row 1) balances at least as well but cuts more edges.
	if nc[1] > nc[0]*1.05 {
		t.Fatalf("LPT node connection should not be much worse: %v vs %v", nc[1], nc[0])
	}
	if cut[1] <= cut[0] {
		t.Fatalf("LPT should cut more edges: %v vs %v", cut[1], cut[0])
	}
	// The extra cut edges cost region-connection time, but at this tiny
	// scale the two partitioners' totals are within a fraction of a
	// percent of each other (fail-fast local plans stop rejected edges at
	// slightly different counter totals), so allow a hair of slack — the
	// edge-cut assertion above carries the tradeoff signal.
	if rc[1] < rc[0]*0.99 {
		t.Fatalf("LPT should not pay less region connection: %v vs %v", rc[1], rc[0])
	}
}

func TestAblationVictimPolicyAccounting(t *testing.T) {
	tb := table(t, "ablation-victims")
	issued := tb.Column("steals-issued")
	granted := tb.Column("steals-granted")
	denied := tb.Column("steals-denied")
	for i := range issued {
		if issued[i] < granted[i]+denied[i] {
			t.Fatalf("row %d: issued %v < granted %v + denied %v", i, issued[i], granted[i], denied[i])
		}
		if granted[i] <= 0 {
			t.Fatalf("row %d: no steals granted on an imbalanced workload", i)
		}
	}
}

func TestAblationStealChunkRuns(t *testing.T) {
	tb := table(t, "ablation-stealchunk")
	for _, col := range tb.Columns {
		for i, v := range tb.Column(col) {
			if v <= 0 {
				t.Fatalf("%s row %d: non-positive time", col, i)
			}
		}
	}
}

func TestAblationWeightsShape(t *testing.T) {
	tb := table(t, "ablation-weights")
	times := tb.Column("node-connection-time")
	if times[1] >= times[0] {
		t.Fatalf("measured-weight repartitioning should beat baseline: %v vs %v", times[1], times[0])
	}
	if times[2] != times[0] {
		t.Fatal("uniform-weight rebalance must be a no-op")
	}
}

func TestAblationRRTStar(t *testing.T) {
	tb := table(t, "ablation-rrtstar")
	noLB := tb.Column("no-lb-time")
	// RRT* costs strictly more than plain RRT for the same node budget.
	if noLB[1] <= noLB[0] {
		t.Fatalf("RRT* should cost more: %v vs %v", noLB[1], noLB[0])
	}
	for _, v := range tb.Column("steal-speedup") {
		if v <= 0 {
			t.Fatal("speedup must be positive")
		}
	}
}

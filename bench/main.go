// Command bench is parmp's wall-clock benchmark: five workloads, each a
// closed loop over inputs generated from a seed, measured end to end
// with tracing off and layer by layer in a separate traced run. It is
// described by /BENCHMARK.json and documented in bench/README.md.
//
// bench/run.sh builds it and runs it from the repository root:
//
//	bash bench/run.sh -workload grow-prm -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload query-cold -trace 1
//	bash bench/run.sh -aa                    # A/A self-check, all workloads
//	bash bench/run.sh -scale smoke           # seconds, not minutes
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end for -trace 0, per-layer
// for -trace 1). Any failed operation, oracle rejection or parity
// violation makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloads := fs.String("workload", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	scaleName := fs.String("scale", "full", "repetition counts: full or smoke")
	aa := fs.Bool("aa", false, "run every selected workload twice and compare the pairs against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q (want full or smoke)\n", *scaleName)
		return 2
	}
	names := spec.workloadNames()
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	for _, n := range names {
		if workloadCtors[n] == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(spec.workloadNames(), ", "))
			return 2
		}
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if sc.Name == "smoke" {
			*seconds = 0 // one cycle
		}
	}
	// One core for everything but exec.speedup: README, "One core".
	runtime.GOMAXPROCS(1)
	b := &bench{spec: spec, sc: sc, seed: *seed, seconds: *seconds}
	if *aa {
		return b.selfCheck(names)
	}
	code := 0
	for _, n := range names {
		res := b.runOne(n, *trace == 1)
		if err := b.print(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// resultsDir receives trace_<workload>.json and aa.json; the program
// runs from the repository root.
const resultsDir = "bench/results"

type bench struct {
	spec    *benchSpec
	sc      scale
	seed    uint64
	seconds float64
}

func (b *bench) runOne(name string, traced bool) result {
	w := workloadCtors[name](b.sc)
	if !traced {
		return runUntraced(name, w, b.seed, b.seconds, b.sc)
	}
	return runTraced(name, w, b.seed, b.sc, filepath.Join(resultsDir, "trace_"+name+".json"))
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable table (every metric by name with its
// unit) and then the result line.
func (b *bench) print(res result) error {
	declared := b.spec.EndToEnd
	if res.Traced {
		declared = b.spec.PerLayer
	}
	// A run that failed (set-up, most likely) may have stopped before it
	// measured everything; it reports what it has.
	metrics, err := project(declared, res.Metrics, res.Traced || !res.Correct)
	if err != nil {
		return err
	}
	kind := "end-to-end, tracing off"
	if res.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s  seed %d  %s  scale %s  cycles %d  samples %d\n",
		res.Workload, res.Seed, kind, b.sc.Name, res.Cycles, res.Samples)
	for _, m := range declared {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("%-36s %16.4f %s\n", m.Name, v, m.Unit)
		}
	}
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-36s %16.17g (exact, cycle 0)\n", "exact."+k, res.Exact[k])
	}
	fmt.Printf("%-36s %16.6f fraction (%d of %d)\n", "error_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Println("FAIL:", n)
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// aaReport is what -aa writes: both untraced sets, one traced set, and
// where they were taken. bench/results/baseline.json is one of these.
type aaReport struct {
	NProc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	Commit    string   `json:"commit"`
	Scale     string   `json:"scale"`
	Seconds   float64  `json:"seconds"`
	A         []result `json:"a"`
	B         []result `json:"b"`
	Traced    []result `json:"traced"`
	Failures  []string `json:"failures"`
	Claim     *string  `json:"claim"`
}

// selfCheck is the A/A run: every selected workload twice with the same
// seed, in alternating order, then once traced. Two runs of the same
// code must agree within the bounds BENCHMARK.json sets for a
// regression, and on every exact count without any tolerance.
func (b *bench) selfCheck(names []string) int {
	rep := aaReport{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: gitCommit(), Scale: b.sc.Name, Seconds: b.seconds}
	rep.A = make([]result, len(names))
	rep.B = make([]result, len(names))
	for i, n := range names {
		first, second := &rep.A[i], &rep.B[i]
		if i%2 == 1 {
			first, second = second, first
		}
		*first = b.runOne(n, false)
		*second = b.runOne(n, false)
	}
	for _, n := range names {
		rep.Traced = append(rep.Traced, b.runOne(n, true))
	}
	for i, n := range names {
		a, bb := rep.A[i], rep.B[i]
		for _, r := range []result{a, bb, rep.Traced[i]} {
			if !r.Correct {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %d of %d operations failed: %v", n, r.Failed, r.Attempted, r.Notes))
			}
		}
		for _, m := range b.spec.EndToEnd {
			va, vb := a.Metrics[m.Name], bb.Metrics[m.Name]
			d := max(worseBy(va, vb, m.Better), worseBy(vb, va, m.Better))
			verdict := "ok"
			if d > m.Bound {
				verdict = "FAIL"
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%% > %.0f%%", n, m.Name, va, vb, 100*d, 100*m.Bound))
			}
			fmt.Printf("%-13s %-12s %14.4f %14.4f %-6s %6.1f%% (bound %.0f%%) %s\n", n, m.Name, va, vb, m.Unit, 100*d, 100*m.Bound, verdict)
		}
		for k, va := range a.Exact {
			if vb := bb.Exact[k]; va != vb {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s exact.%s: %v vs %v", n, k, va, vb))
			}
			if vt, ok := rep.Traced[i].Exact[k]; ok && vt != va {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s exact.%s: untraced %v, traced %v", n, k, va, vt))
			}
		}
	}
	for _, f := range rep.Failures {
		fmt.Println("FAIL:", f)
	}
	if err := b.writeReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	fmt.Println("A/A ok: every pair within its bound, every exact count identical")
	return 0
}

func (b *bench) writeReport(rep aaReport) error {
	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, "aa.json"), append(buf, '\n'), 0o644)
}

// gitCommit names the measured commit when the benchmark runs inside a
// git checkout; elsewhere the report says so.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

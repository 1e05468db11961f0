// Command mpbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	mpbench -exp fig5a -scale quick
//	mpbench -exp all -scale full
//	mpbench -list
//	mpbench -kernels BENCH_kernels.json
//
// The -kernels mode benchmarks the hot compute kernels (sampling,
// collision checking, kNN, region connection) instead of running
// experiments, writes machine-readable results (ns/op, allocs/op, B/op
// per kernel) to the given file ("-" for stdout), and exits non-zero if
// any kernel fails kernelbench.Check (the allocs/op ceiling and the
// batch-vs-scalar ns/item ratio) — the CI benchmark-regression gate.
//
// Each experiment prints one or more text tables whose rows/series mirror
// the corresponding figure of "Using Load Balancing to Scalably
// Parallelize Sampling-Based Motion Planning Algorithms" (IPDPS 2014).
// The quick scale finishes in seconds; the full scale sweeps the paper's
// processor counts (up to 3072 virtual processors) and takes minutes.
//
// The -kernels mode writes its result file before its gate is evaluated,
// and -cpuprofile / -memprofile wrap whichever mode runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"parmp/internal/bench"
	"parmp/internal/experiments"
	"parmp/internal/kernelbench"
	"parmp/internal/metrics"
)

func main() { os.Exit(run()) }

// usageError marks a bad flag value: exit status 2 rather than 1.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// run is main returning its exit status, so the deferred profile stop
// runs whatever the mode and however it ends.
func run() int {
	testing.Init() // registers test.* flags so -kernels can set benchtime
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(experiments.Names(), ", ")+")")
	planner := flag.String("planner", "", "with -exp planners, race only these planners (comma-separated: rrt, rrtconnect)")
	scale := flag.String("scale", "quick", "sweep scale (quick, full)")
	format := flag.String("format", "text", "output format (text, csv, json)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	kernels := flag.String("kernels", "", "benchmark the compute kernels, write JSON results to this file (\"-\" for stdout) and apply the kernel gate")
	kernelsBenchtime := flag.String("kernels-benchtime", "100x", "with -kernels, benchtime per kernel (e.g. 100x, 1s)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.Names() {
			fmt.Println(id)
		}
		return 0
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()
	if *kernels != "" {
		err = runKernels(*kernels, *kernelsBenchtime)
	} else {
		err = runExperiments(*exp, *planner, *scale, *format)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// fail reports err and returns the exit status for it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mpbench:", err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// startProfiles starts the CPU profile (when cpuPath is set) and returns
// the function that stops it and writes the heap profile (when memPath is
// set).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mpbench:", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpbench:", err)
			return
		}
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mpbench:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mpbench:", err)
		}
	}, nil
}

// runExperiments regenerates the named figure's tables on stdout.
func runExperiments(exp, planner, scale, format string) error {
	sc, ok := experiments.ScaleByName(scale)
	if !ok {
		return usagef("unknown scale %q (want quick or full)", scale)
	}
	start := time.Now()
	var tables []*metrics.Table
	if planner != "" {
		if exp != "planners" && exp != "all" {
			return usagef("-planner only applies to -exp planners")
		}
		names := strings.Split(planner, ",")
		for i, n := range names {
			names[i] = strings.TrimSpace(n)
			switch names[i] {
			case "rrt", "rrtconnect":
			default:
				return usagef("unknown planner %q (want rrt, rrtconnect)", names[i])
			}
		}
		tables = experiments.Planners(sc, names)
	} else if tables, ok = experiments.ByName(exp, sc); !ok {
		return usagef("unknown experiment %q; try -list", exp)
	}
	for i, tb := range tables {
		if i > 0 {
			fmt.Println()
		}
		switch format {
		case "csv":
			fmt.Printf("# %s\n", tb.Title)
			if err := tb.WriteCSV(os.Stdout); err != nil {
				return err
			}
		case "json":
			if err := tb.WriteJSON(os.Stdout); err != nil {
				return err
			}
		default:
			fmt.Print(tb.String())
		}
	}
	fmt.Fprintf(os.Stderr, "mpbench: %s at scale %s in %v\n", exp, sc.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

// runKernels benchmarks the kernel suite, writes JSON results to path
// ("-" for stdout), and enforces the kernel gate.
func runKernels(path, benchtime string) error {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("bad -kernels-benchtime: %w", err)
	}
	start := time.Now()
	results := kernelbench.RunAll()
	if err := bench.WriteFile(path, results); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "mpbench: kernel %-20s %12.1f ns/op %9.1f ns/item %8d B/op %6d allocs/op\n",
			r.Name, r.NsPerOp, r.NsPerItem, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "mpbench: %d kernels in %v\n", len(results), time.Since(start).Round(time.Millisecond))
	return kernelbench.Check(results)
}

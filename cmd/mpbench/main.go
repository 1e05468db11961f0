// Command mpbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	mpbench -exp fig5a -scale quick
//	mpbench -exp all -scale full
//	mpbench -list
//
// Each experiment prints one or more text tables whose rows/series mirror
// the corresponding figure of "Using Load Balancing to Scalably
// Parallelize Sampling-Based Motion Planning Algorithms" (IPDPS 2014).
// The quick scale finishes in seconds; the full scale sweeps the paper's
// processor counts (up to 3072 virtual processors) and takes minutes.
// An unknown -exp, -scale, -planner or -format value exits 2 before any
// experiment runs; -cpuprofile / -memprofile wrap the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"parmp/internal/experiments"
	"parmp/internal/metrics"
)

func main() { os.Exit(run()) }

// usageError marks a bad flag value: exit status 2 rather than 1.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// run is main returning its exit status, so the deferred profile stop
// runs however the run ends.
func run() int {
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(experiments.Names(), ", ")+")")
	planner := flag.String("planner", "", "with -exp planners, race only these planners (comma-separated: rrt, rrtconnect)")
	scale := flag.String("scale", "quick", "sweep scale (quick, full)")
	format := flag.String("format", "text", "output format (text, csv, json)")
	list := flag.Bool("list", false, "list experiment ids and exit")
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
	if err = runExperiments(*exp, *planner, *scale, *format); err != nil {
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
	switch format {
	case "text", "csv", "json":
	default:
		return usagef("unknown format %q (want text, csv or json)", format)
	}
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

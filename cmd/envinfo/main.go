// Command envinfo inspects a benchmark environment: obstacle statistics,
// per-region free volume and load-estimate distribution, and (for 2D
// environments) an ASCII occupancy map.
//
// Usage:
//
//	envinfo -env med-cube -regions 64 -procs 8
//	envinfo -env maze-2d
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parmp"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
)

func main() {
	envName := flag.String("env", "med-cube", "environment ("+strings.Join(parmp.EnvironmentNames(), ", ")+")")
	envFile := flag.String("envfile", "", "load the environment from a file in the env text format instead")
	regions := flag.Int("regions", 64, "regions for the load analysis")
	procs := flag.Int("procs", 8, "processors for the partition analysis")
	samples := flag.Int("samples", 32, "sampling attempts per region")
	flag.Parse()
	// Every int flag is a count: reject a non-positive one before any work.
	flag.Visit(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n <= 0 {
			fmt.Fprintf(os.Stderr, "envinfo: -%s must be positive, got %d\n", f.Name, n)
			os.Exit(2)
		}
	})

	var e *env.Environment
	if *envFile != "" {
		f, err := os.Open(*envFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "envinfo:", err)
			os.Exit(2)
		}
		e, err = env.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "envinfo:", err)
			os.Exit(2)
		}
	} else {
		e = env.ByName(*envName)
	}
	if e == nil {
		fmt.Fprintf(os.Stderr, "envinfo: unknown environment %q (have %s)\n", *envName, strings.Join(parmp.EnvironmentNames(), ", "))
		os.Exit(2)
	}
	fmt.Println(e)
	fmt.Printf("planners    : %s\n", strings.Join(parmp.PlannerNames(), ", "))

	// Region-level free volume and sample-count weights.
	rg, err := region.UniformGrid(e.Bounds, region.SplitEvenly(e.Dim(), *regions))
	if err != nil {
		fmt.Fprintln(os.Stderr, "envinfo:", err)
		os.Exit(2)
	}
	s := cspace.NewPointSpace(e)
	n := rg.NumRegions()
	vfree := make([]float64, n)
	weights := make([]float64, n)
	params := prm.Params{SamplesPerRegion: *samples, K: 4}
	for i := 0; i < n; i++ {
		vfree[i] = e.FreeVolumeIn(rg.Region(i).Box, 2000, uint64(i))
		nodes, _ := prm.SampleRegion(s, rg.Region(i).Box, i, params, rng.Derive(1, uint64(i)))
		weights[i] = float64(len(nodes))
	}
	fmt.Printf("regions     : %d (grid), free-volume CV=%.3f, sample-count CV=%.3f\n",
		n, metrics.CV(vfree), metrics.CV(weights))

	region.NaiveColumnPartition(rg, *procs)
	loads := repart.Loads(weights, rg.Owner, *procs)
	fmt.Printf("naive map   : %d procs, load CV=%.3f, max/mean=%.2f\n",
		*procs, metrics.CV(loads), metrics.Max(loads)/metrics.Mean(loads))
	fmt.Printf("edge cut    : %d of %d region edges\n", rg.EdgeCut(), rg.G.NumEdges())
	fmt.Printf("weights     : %s (regions in ID order)\n", metrics.Sparkline(weights))
	fmt.Println("per-proc load:")
	labels := make([]string, *procs)
	for p := range labels {
		labels[p] = fmt.Sprintf("p%d", p)
	}
	for _, line := range metrics.BarChart(labels, loads, 40) {
		fmt.Println("  " + line)
	}

	if e.Dim() == 2 {
		fmt.Println()
		printOccupancy(e, 48, 24)
	}
}

// printOccupancy renders a 2D environment as ASCII: '#' blocked, '.' free.
func printOccupancy(e *env.Environment, w, h int) {
	for row := h - 1; row >= 0; row-- {
		var b strings.Builder
		for col := 0; col < w; col++ {
			x := e.Bounds.Lo[0] + (float64(col)+0.5)/float64(w)*(e.Bounds.Hi[0]-e.Bounds.Lo[0])
			y := e.Bounds.Lo[1] + (float64(row)+0.5)/float64(h)*(e.Bounds.Hi[1]-e.Bounds.Lo[1])
			if e.PointFree(geom.V(x, y)) {
				b.WriteByte('.')
			} else {
				b.WriteByte('#')
			}
		}
		fmt.Println(b.String())
	}
}

package parmp_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding figure at the quick scale; run
// cmd/mpbench -scale full for the paper's processor counts (up to 3072
// virtual processors).
//
//	go test -bench=. -benchmem
//
// Benchmarks report the figure's headline number as a custom metric where
// one exists (speedup factors, CV reductions) so regressions in the
// reproduced SHAPE are visible, not just wall-clock changes.

import (
	"fmt"
	"runtime"
	"testing"

	"parmp"
	"parmp/internal/experiments"
	"parmp/internal/metrics"
)

// benchExperiment regenerates experiment id at the quick scale b.N times
// and hands the first run's tables to report (nil reports nothing).
func benchExperiment(b *testing.B, id string, report func(tables []*metrics.Table)) {
	sc := experiments.Quick()
	for i := 0; i < b.N; i++ {
		tables, ok := experiments.ByName(id, sc)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		if i == 0 && report != nil {
			report(tables)
		}
	}
}

// reportSpeedup reports base/improved at the first and last sweep point.
func reportSpeedup(b *testing.B, tb *metrics.Table, base, improved string) {
	bs := tb.Column(base)
	im := tb.Column(improved)
	if len(bs) == 0 || len(im) == 0 || im[0] == 0 {
		return
	}
	b.ReportMetric(bs[0]/im[0], "speedup-lowP")
	b.ReportMetric(bs[len(bs)-1]/im[len(im)-1], "speedup-highP")
}

func BenchmarkFig4a(b *testing.B) {
	benchExperiment(b, "fig4a", func(tables []*metrics.Table) {
		naive := tables[0].Column("model-imbalance")
		best := tables[0].Column("model-improvement")
		b.ReportMetric(naive[len(naive)-1], "naiveCV")
		b.ReportMetric(best[len(best)-1], "bestCV")
	})
}

func BenchmarkFig4b(b *testing.B) {
	benchExperiment(b, "fig4b", func(tables []*metrics.Table) {
		b.ReportMetric(tables[0].Column("theoretical-pct")[0], "theoretical-pct-lowP")
	})
}

func BenchmarkFig5a(b *testing.B) {
	benchExperiment(b, "fig5a", func(tables []*metrics.Table) {
		reportSpeedup(b, tables[0], "without-lb", "repartitioning")
	})
}

func BenchmarkFig5b(b *testing.B) {
	benchExperiment(b, "fig5b", func(tables []*metrics.Table) {
		b.ReportMetric(tables[0].Column("before-repartitioning")[0], "cv-before")
		b.ReportMetric(tables[0].Column("after-repartitioning")[0], "cv-after")
	})
}

func BenchmarkFig5c(b *testing.B) {
	benchExperiment(b, "fig5c", func(tables []*metrics.Table) {
		noLB := tables[0].Column("without-lb")
		rp := tables[0].Column("repartitioning")
		b.ReportMetric(noLB[0]-noLB[len(noLB)-1], "spread-nolb")
		b.ReportMetric(rp[0]-rp[len(rp)-1], "spread-repart")
	})
}

func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", func(tables []*metrics.Table) {
		reportSpeedup(b, tables[0], "without-lb", "repartitioning")
	})
}

func BenchmarkFig7a(b *testing.B) {
	benchExperiment(b, "fig7a", func(tables []*metrics.Table) {
		nc := tables[0].Column("node-connection")
		rc := tables[0].Column("region-connection")
		other := tables[0].Column("other")
		b.ReportMetric(nc[0]/(nc[0]+rc[0]+other[0]), "node-conn-frac")
	})
}

func BenchmarkFig7b(b *testing.B) {
	benchExperiment(b, "fig7b", func(tables []*metrics.Table) {
		if region := tables[0].Column("region-graph"); region[0] > 0 {
			b.ReportMetric(region[1]/region[0], "remote-access-ratio")
		}
	})
}

func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8", func(tables []*metrics.Table) {
		reportSpeedup(b, tables[0], "without-lb", "repartitioning")
	})
}

func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9", func(tables []*metrics.Table) {
		b.ReportMetric(metrics.Sum(tables[0].Column("stolen")), "stolen-lowP")
		b.ReportMetric(metrics.Sum(tables[1].Column("stolen")), "stolen-highP")
	})
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", func(tables []*metrics.Table) {
		noLB := tables[0].Column("without-lb")
		diff := tables[0].Column("diffusive-ws")
		b.ReportMetric(noLB[0]/diff[0], "rrt-steal-speedup")
	})
}

// BenchmarkPlanPRM measures the library's end-to-end planning throughput
// (independent of any figure).
func BenchmarkPlanPRM(b *testing.B) {
	e := parmp.EnvironmentByName("med-cube")
	space := parmp.NewPointSpace(e)
	opts := parmp.Options{Procs: 16, Regions: 128, SamplesPerRegion: 8, Strategy: parmp.Repartition, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parmp.PlanPRM(space, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostPipeline measures the wall-clock effect of running the
// heavy planner phases (PRM sampling, node connection, region connection)
// through the host executor: every region closure executes once before
// the virtual-time replay, which only accounts for the recorded costs —
// in queue order on the caller's goroutine at HostWorkers=1, concurrently
// on the executor at HostWorkers=GOMAXPROCS. Virtual-time results are
// identical; only wall clock changes.
func BenchmarkHostPipeline(b *testing.B) {
	space := parmp.NewPointSpace(parmp.EnvironmentByName("med-cube"))
	base := parmp.Options{
		Procs: 16, Regions: 256, SamplesPerRegion: 12, ConnectK: 8,
		Strategy: parmp.Repartition, Seed: 1,
	}
	hws := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		hws = append(hws, n)
	}
	for _, hw := range hws {
		opts := base
		opts.HostWorkers = hw
		b.Run(fmt.Sprintf("hostworkers=%d", hw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parmp.PlanPRM(space, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanRRT measures radial RRT planning throughput.
func BenchmarkPlanRRT(b *testing.B) {
	space := parmp.NewPointSpace(parmp.EnvironmentByName("mixed-30"))
	opts := parmp.Options{Procs: 8, Regions: 64, NodesPerRegion: 10, Radius: 0.5,
		Policy: parmp.Diffusive(), Seed: 1}
	root := parmp.V(0.5, 0.5, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parmp.PlanRRT(space, root, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: design-choice studies from DESIGN.md.

func BenchmarkAblationDecomposition(b *testing.B) {
	benchExperiment(b, "ablation-decomposition", func(tables []*metrics.Table) {
		noLB := tables[0].Column("without-lb")
		rp := tables[0].Column("repartitioning")
		last := len(noLB) - 1
		b.ReportMetric(noLB[last]/rp[last], "speedup-at-max-decomp")
	})
}

func BenchmarkAblationStealChunk(b *testing.B) {
	benchExperiment(b, "ablation-stealchunk", nil)
}

func BenchmarkAblationPartitioner(b *testing.B) {
	benchExperiment(b, "ablation-partitioner", func(tables []*metrics.Table) {
		if cut := tables[0].Column("edge-cut"); cut[0] > 0 {
			b.ReportMetric(cut[1]/cut[0], "lpt-cut-ratio")
		}
	})
}

func BenchmarkAblationVictimPolicy(b *testing.B) {
	benchExperiment(b, "ablation-victims", nil)
}

// Model environment: the paper's theoretical analysis (Section IV-B) made
// executable. For the 2D single-square-obstacle model we compute the
// exact free volume per region, predict the imbalance of the naive
// column partition and the best greedy partition, then run the real
// planner and show the prediction tracking the measurement — the
// reproduction of Figure 4.
//
//	go run ./examples/modelenv
package main

import (
	"fmt"

	"parmp/internal/experiments"
	"parmp/internal/model"
)

func main() {
	m := model.Model{Blocked: 0.25, Grid: 16}
	fmt.Println("Model: 2D unit workspace, centered square obstacle (25% blocked),")
	fmt.Printf("subdivided into %dx%d regions.\n\n", m.Grid, m.Grid)

	fmt.Printf("%6s %18s %18s %18s\n", "procs", "naive CV (model)", "best CV (model)", "improvement %")
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		fmt.Printf("%6d %18.4f %18.4f %18.1f\n",
			p, m.NaiveCV(p), m.BestCV(p), m.TheoreticalImprovement(p))
	}
	fmt.Println("\nNote the collapse at high processor counts: once each processor")
	fmt.Println("holds only a couple of regions, no rebalancing can help — the")
	fmt.Println("granularity bound of Section III.")

	fmt.Println("\nFull Figure 4 reproduction (model vs measured):")
	for _, id := range []string{"fig4a", "fig4b"} {
		tables, _ := experiments.ByName(id, experiments.Quick())
		for _, tb := range tables {
			fmt.Println(tb.String())
		}
	}
}

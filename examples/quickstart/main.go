// Quickstart: build a roadmap of the med-cube benchmark environment with
// the load-balanced parallel PRM and answer a motion query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"parmp"
)

func main() {
	// A 3D workspace with a single cubic obstacle blocking ~24 % of it.
	e := parmp.EnvironmentByName("med-cube")
	space := parmp.NewPointSpace(e)

	// Plan on 16 virtual processors with 128 regions (8x over-decomposed)
	// and bulk-synchronous repartitioning for load balance.
	snap, err := parmp.PlanPRM(space, parmp.Options{
		Procs:            16,
		Regions:          128,
		SamplesPerRegion: 16,
		Strategy:         parmp.Repartition,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := snap.PRM()
	fmt.Printf("roadmap: %d nodes, %d edges\n", res.Roadmap.NumNodes(), res.Roadmap.NumEdges())
	fmt.Printf("virtual execution time: %.0f units\n", res.TotalTime)
	fmt.Printf("load CV: %.3f before balancing, %.3f after\n", res.CVBefore, res.CVAfter)

	// Answer a query through the narrow space around the obstacle.
	start := parmp.V(0.05, 0.05, 0.05)
	goal := parmp.V(0.95, 0.95, 0.95)
	path, ok := snap.Query(start, goal, 8)
	if !ok {
		log.Fatal("no path found; increase SamplesPerRegion")
	}
	fmt.Printf("query solved with %d waypoints:\n", len(path))
	for i, q := range path {
		fmt.Printf("  %2d: %v\n", i, q)
	}
}

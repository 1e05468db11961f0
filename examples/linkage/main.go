// Linkage: plan for an articulated 8-DOF planar chain with the radial
// parallel RRT — the many-degrees-of-freedom workload class (manipulator
// arms, protein backbones) that motivates parallel sampling-based
// planning in the paper's introduction.
//
//	go run ./examples/linkage
package main

import (
	"fmt"
	"log"
	"math"

	"parmp"
)

func main() {
	// A 2D maze workspace; the robot is an 8-link chain anchored near the
	// lower-left corner, below the first wall's doorway. Its C-space is
	// 8-dimensional (one absolute angle per link), so exact planning is
	// hopeless and sampling shines.
	e := parmp.EnvironmentByName("maze-2d")
	links := []float64{0.06, 0.06, 0.05, 0.05, 0.04, 0.04, 0.03, 0.03}
	space := parmp.NewLinkageSpace(e, parmp.V(0.05, 0.1), links...)

	// Root the tree at a zig-zag configuration that snakes along the open
	// corridor below the walls' gaps.
	root := make(parmp.Config, len(links))
	for i := range root {
		root[i] = math.Pi / 6
		if i%2 == 1 {
			root[i] = -math.Pi / 6
		}
	}
	snap, err := parmp.PlanRRT(space, root, parmp.Options{
		Procs:          8,
		Regions:        48,
		NodesPerRegion: 24,
		Step:           0.15,
		Radius:         2.5, // radial subdivision sphere in joint space
		Policy:         parmp.Diffusive(),
		Seed:           5,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := snap.RRT()
	fmt.Printf("grew %d tree nodes across %d cone regions\n",
		res.TotalNodes(), len(res.Branches))
	fmt.Printf("bridges between branches: %d (pruned %d cycle-closers)\n",
		len(res.Bridges), res.PrunedCycles)
	fmt.Printf("virtual time: %.0f units; per-proc load CV %.3f\n",
		res.TotalTime, res.CVAfter)

	stolen := 0
	for _, ps := range res.ProcStats {
		stolen += ps.TasksStolen
	}
	fmt.Printf("work stealing moved %d of %d region tasks\n", stolen, len(res.Branches))

	// Show how far the chain tip wandered from the root pose.
	var maxDist float64
	for _, tree := range res.Branches {
		for _, n := range tree.Nodes {
			if d := space.Distance(root, n.Q); d > maxDist {
				maxDist = d
			}
		}
	}
	fmt.Printf("deepest configuration is %.2f rad (joint metric) from the root\n", maxDist)
}

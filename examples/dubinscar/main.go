// Dubins car: a forward-only vehicle with a bounded turning radius plans
// through a corridor maze with the radial parallel RRT. Every tree edge
// is a shortest Dubins curve, so the extracted trajectory is drivable —
// the non-holonomic planning workload the paper highlights RRTs for.
//
//	go run ./examples/dubinscar
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"parmp"
)

// scene: a single wall at x = 0.5 with a doorway below y = 0.25. The car
// must dive to the doorway, drive through and climb on the far side.
const scene = `
name one-door
bounds 0 0 1 1
box 0.485 0.25 0.515 1
`

func main() {
	e, err := parmp.ParseEnvironment(strings.NewReader(scene))
	if err != nil {
		log.Fatal(err)
	}
	// Turning radius 0.06 relative to a 0.25-wide doorway.
	space := parmp.NewDubinsSpace(e, 0.06)

	root := parmp.V(0.2, 0.5, 0) // left hall, facing +x
	snap, err := parmp.PlanRRT(space, root, parmp.Options{
		Procs:          8,
		Regions:        64,
		NodesPerRegion: 50,
		Step:           0.08,
		Radius:         1.2, // radial subdivision sphere in (x, y, theta)
		Policy:         parmp.Hybrid(8),
		Seed:           3,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := snap.RRT()
	fmt.Printf("grew %d feasible car states across %d cone regions (%.0f virtual units)\n",
		res.TotalNodes(), len(res.Branches), res.TotalTime)

	goal := parmp.V(0.8, 0.8, math.Pi/2) // far side, facing +y
	path, ok := snap.Query(root, goal, 1)
	if !ok {
		log.Fatal("goal unreachable; grow more nodes per region")
	}
	fmt.Printf("drivable trajectory with %d waypoints:\n", len(path))
	for i, q := range path {
		if i%3 == 0 || i == len(path)-1 {
			fmt.Printf("  %2d: x=%.3f y=%.3f heading=%+.2f rad\n", i, q[0], q[1], q[2])
		}
	}
}

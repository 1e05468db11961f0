// Warehouse: a rigid rectangular cart (SE(2): x, y, heading) navigating a
// custom 2D warehouse floor loaded from the environment text format,
// exercising the full stack: environment parsing, SE(2) collision
// checking, the load-balanced parallel PRM, query answering and path
// shortcutting.
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"strings"

	"parmp"
)

// floor is a small warehouse: shelving rows with a doorway between halls.
const floor = `
name warehouse
bounds 0 0 2 1
# shelving rows (leave an aisle at y ~ 0.5)
box 0.25 0.0  0.45 0.40
box 0.25 0.62 0.45 1.0
box 0.95 0.0  1.15 0.42
box 0.95 0.60 1.15 1.0
box 1.60 0.0  1.80 0.38
box 1.60 0.64 1.80 1.0
`

func main() {
	e, err := parmp.ParseEnvironment(strings.NewReader(floor))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(e)

	// A cart 0.24 long and 0.08 wide; the aisles between shelving rows
	// are ~0.2 wide, so heading matters when crossing them.
	space := parmp.NewSE2Space(e, 0.12, 0.04)

	snap, err := parmp.PlanPRM(space, parmp.Options{
		Procs:            16,
		Regions:          192,
		SamplesPerRegion: 40,
		ConnectK:         8,
		Policy:           parmp.Hybrid(8),
		Seed:             11,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := snap.PRM()
	fmt.Printf("roadmap: %d nodes, %d edges; virtual time %.0f units\n",
		res.Roadmap.NumNodes(), res.Roadmap.NumEdges(), res.TotalTime)

	start := parmp.V(0.15, 0.51, 0) // facing +x in the left hall
	goal := parmp.V(1.85, 0.5, 0)   // far right hall
	path, ok := snap.Query(start, goal, 10)
	if !ok {
		log.Fatal("no path found; raise SamplesPerRegion")
	}
	short := parmp.ShortcutPath(space, path, 200, 11)
	fmt.Printf("path: %d waypoints (%.3f length), shortcut to %d (%.3f)\n",
		len(path), parmp.PathLength(space, path),
		len(short), parmp.PathLength(space, short))
	for i, q := range short {
		fmt.Printf("  %2d: x=%.3f y=%.3f heading=%+.2f rad\n", i, q[0], q[1], q[2])
	}
}

package parmp_test

import (
	"fmt"

	"parmp"
)

// ExamplePlanPRM builds a load-balanced roadmap of the med-cube
// benchmark and answers a query through it.
func ExamplePlanPRM() {
	space := parmp.NewPointSpace(parmp.EnvironmentByName("med-cube"))
	snap, err := parmp.PlanPRM(space, parmp.Options{
		Procs:            8,
		Regions:          64,
		SamplesPerRegion: 12,
		Strategy:         parmp.Repartition,
		Seed:             1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	_, ok := snap.Query(parmp.V(0.05, 0.05, 0.05), parmp.V(0.95, 0.95, 0.95), 8)
	fmt.Println("solved:", ok)
	res := snap.PRM()
	fmt.Println("balanced:", res.CVAfter < res.CVBefore)
	// Output:
	// solved: true
	// balanced: true
}

// ExamplePlanRRT grows a radial tree with work stealing and extracts a
// path to a goal.
func ExamplePlanRRT() {
	space := parmp.NewPointSpace(parmp.EnvironmentByName("free"))
	root := parmp.V(0.5, 0.5, 0.5)
	snap, err := parmp.PlanRRT(space, root, parmp.Options{
		Procs:          4,
		Regions:        24,
		NodesPerRegion: 15,
		Radius:         0.45,
		Policy:         parmp.Diffusive(),
		Seed:           2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	path, ok := snap.Query(root, parmp.V(0.7, 0.6, 0.5), 1)
	fmt.Println("reached:", ok, "— path starts at root:", path[0].Equal(root, 1e-9))
	// Output:
	// reached: true — path starts at root: true
}

// ExampleEnvironmentByName lists the benchmark environments bundled with
// the library.
func ExampleEnvironmentByName() {
	for _, name := range parmp.EnvironmentNames() {
		if e := parmp.EnvironmentByName(name); e == nil {
			fmt.Println("missing:", name)
		}
	}
	fmt.Println("all", len(parmp.EnvironmentNames()), "environments available")
	// Output:
	// all 10 environments available
}

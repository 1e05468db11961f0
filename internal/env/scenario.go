package env

import (
	"fmt"
	"math"

	"parmp/internal/geom"
)

// A Scenario scripts a dynamic world: a base environment plus a
// deterministic sequence of mutation steps (obstacles moving, doors
// opening and closing). Scenarios are the workload for incremental
// roadmap repair — each step produces a Delta whose repair work is
// spatially concentrated around the moved obstacle, exactly the skewed
// distribution the observed-cost load balancer exists for.
type Scenario struct {
	Name string
	Desc string
	// BuildMoves returns a fresh base environment (epoch 0) plus the
	// script as data: step k's (0-based) obstacle translations. Steps must
	// be applied in order 0, 1, 2, ... — each translation is relative to
	// the pose the previous step left behind — either to the environment
	// directly (ApplyMoves) or through a higher layer
	// (parmp.Engine.ApplyDelta).
	BuildMoves func() (*Environment, func(k int) []Move)
}

// A Move is one scripted translation: the obstacle at Index moves by By.
type Move struct {
	Index int
	By    geom.Vec
}

// ApplyMoves commits moves in order and returns their merged delta. All
// or nothing: a rejected move leaves the environment — obstacles and
// epoch — untouched.
func (e *Environment) ApplyMoves(moves []Move) (Delta, error) {
	c := e.Clone()
	var merged Delta
	for i, mv := range moves {
		d, err := c.MoveObstacle(mv.Index, mv.By)
		if err != nil {
			return Delta{}, fmt.Errorf("move %d (obstacle %d): %w", i, mv.Index, err)
		}
		merged = merged.Merge(d)
	}
	e.Obstacles, e.Epoch = c.Obstacles, c.Epoch
	return merged, nil
}

// WarehouseForkliftMoves is a 2D warehouse: vertical shelving slabs with
// aisles between them, patrolled by small forklift obstacles that drive
// up and down the aisles on deterministic triangle-wave schedules. Each
// step moves every forklift one increment along its patrol.
func WarehouseForkliftMoves() (*Environment, func(k int) []Move) {
	e := &Environment{Name: "warehouse-forklift", Bounds: unitBox(2)}
	// Shelving: four vertical slabs leaving aisles and open bands at the
	// top and bottom of the floor.
	const shelfThick = 0.04
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8} {
		e.Obstacles = append(e.Obstacles, BoxObstacle{
			Box: geom.Box2(x-shelfThick/2, 0.15, x+shelfThick/2, 0.85),
		})
	}
	// Forklifts: small square bodies, one per aisle, each with its own
	// patrol span, speed and phase so the repair workload shifts from
	// aisle to aisle over time.
	type patrol struct {
		x, lo, hi, speed, phase float64
	}
	patrols := []patrol{
		{x: 0.30, lo: 0.10, hi: 0.90, speed: 0.08, phase: 0.0},
		{x: 0.50, lo: 0.10, hi: 0.90, speed: 0.12, phase: 0.3},
		{x: 0.70, lo: 0.10, hi: 0.90, speed: 0.10, phase: 0.6},
	}
	const body = 0.05
	base := len(e.Obstacles)
	for _, p := range patrols {
		y := triangleWave(p.phase, p.lo, p.hi-body)
		e.Obstacles = append(e.Obstacles, BoxObstacle{
			Box: geom.Box2(p.x-body/2, y, p.x+body/2, y+body),
		})
	}
	steps := func(k int) []Move {
		mvs := make([]Move, len(patrols))
		for i, p := range patrols {
			prev := triangleWave(p.phase+float64(k)*p.speed, p.lo, p.hi-body)
			next := triangleWave(p.phase+float64(k+1)*p.speed, p.lo, p.hi-body)
			mvs[i] = Move{Index: base + i, By: geom.V(0, next-prev)}
		}
		return mvs
	}
	return e, steps
}

// triangleWave maps phase t (any non-negative value, period 2) onto a
// bounce between lo and hi.
func triangleWave(t, lo, hi float64) float64 {
	span := hi - lo
	if span <= 0 {
		return lo
	}
	u := math.Mod(t, 2)
	if u < 0 {
		u += 2
	}
	if u <= 1 {
		return lo + u*span
	}
	return lo + (2-u)*span
}

// DoorMoves is the narrow-passage walls environment with a sliding door
// over the doorway: even steps close it (blocking the only passage
// through the wall), odd steps open it again. The closed door severs
// every path through the passage, so repair must split and re-join the
// roadmap's connected components.
func DoorMoves() (*Environment, func(k int) []Move) {
	const doorW = 0.2
	e := Walls(1, doorW)
	e.Name = "door"
	// Walls(1, doorW) builds one wall at x=0.5 with its doorway at
	// y in [0.1, 0.3]. The door panel starts open: slid down by one
	// door-width so it hides inside the lower wall segment (partially
	// outside the workspace, which is legal — only the in-bounds part
	// blocks, and that part is already wall).
	const thick = 0.04
	door := BoxObstacle{Box: geom.Box3(0.5-thick/2, 0.1-doorW, 0, 0.5+thick/2, 0.1, 1)}
	e.Obstacles = append(e.Obstacles, door)
	doorIdx := len(e.Obstacles) - 1
	steps := func(k int) []Move {
		dy := doorW
		if k%2 == 1 {
			dy = -doorW
		}
		return []Move{{Index: doorIdx, By: geom.V(0, dy, 0)}}
	}
	return e, steps
}

// Scenarios lists the scripted dynamic-world scenarios.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:       "warehouse-forklift",
			Desc:       "2D warehouse shelving with three forklifts patrolling the aisles",
			BuildMoves: WarehouseForkliftMoves,
		},
		{
			Name:       "door",
			Desc:       "narrow-passage wall whose doorway is closed/opened by a sliding door",
			BuildMoves: DoorMoves,
		},
	}
}

// ScenarioNames lists the scenario names.
func ScenarioNames() []string {
	all := Scenarios()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

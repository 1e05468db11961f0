package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"parmp"
)

// Spec describes a tenant: the planning problem a client wants served.
// Two requests whose canonicalized specs are equal share one engine, so
// the canonical form — defaults applied, names normalized — is the
// tenant key.
type Spec struct {
	// Env names a built-in benchmark environment. Exactly one of Env
	// and EnvText must be set.
	Env string `json:"env,omitempty"`
	// EnvText is an inline environment in the env text format
	// (name / bounds / box / sphere directives).
	EnvText string `json:"env_text,omitempty"`
	// Robot selects the C-space: "point" (default), "se2:hx,hy" or
	// "rigid:hx,hy,hz".
	Robot string `json:"robot,omitempty"`
	// Planner is "prm" (default), "rrt" or "rrtconnect". Tree planners
	// require Root (and, for rrtconnect, Goal).
	Planner string    `json:"planner,omitempty"`
	Root    []float64 `json:"root,omitempty"`
	Goal    []float64 `json:"goal,omitempty"`

	Procs   int    `json:"procs,omitempty"`
	Regions int    `json:"regions,omitempty"`
	Samples int    `json:"samples,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Strategy is "none", "repartition" (default), "hybrid", "rand-8"
	// or "diffusive".
	Strategy string `json:"strategy,omitempty"`
	// Rounds is the background growth target; 0 uses the server
	// default.
	Rounds int `json:"rounds,omitempty"`

	// Portfolio races this many derived-seed configurations of the
	// planner to first solution (Luby restarts, lowest-index
	// arbitration) instead of growing one engine; 0 serves a single
	// engine. Requires Root and Goal — the race query.
	Portfolio int `json:"portfolio,omitempty"`
	// Restarts is the portfolio restart schedule, "luby" (default) or
	// "none"; only meaningful with Portfolio > 0.
	Restarts string `json:"restarts,omitempty"`
}

// Size limits of a spec. A tenant is built on its first request's own
// goroutine, before any deadline applies, and both the build (procs,
// regions) and the roadmap it then grows (regions × samples × rounds,
// once per portfolio racer) are sized by numbers the client sends: left
// unbounded, one request holds a handler for minutes and the process for
// gigabytes. The limits sit an order of magnitude above anything the
// repository's own experiments serve.
//
// The per-field limits do not bound their product: every field at its
// limit asks for 4.3 × 10⁹ sampling attempts of background growth that
// only eviction cancels. maxGrowWork bounds regions × samples × rounds ×
// racers, two orders of magnitude above the largest engine the
// repository grows (the benchmark's grow-prm, 256 × 32 × 5 ≈ 41 k).
const (
	maxProcs     = 1024
	maxRegions   = 8 * maxProcs // the engine's default for maxProcs
	maxSamples   = 512
	maxRounds    = 64
	maxPortfolio = 16
	maxGrowWork  = 4 << 20
)

// growWork is the sampling attempts a canonical spec's background growth
// makes: regions × samples × rounds, once per portfolio racer.
func (sp Spec) growWork() int64 {
	regions := sp.Regions
	if regions == 0 {
		regions = 8 * sp.Procs // the engine's default
	}
	return int64(regions) * int64(sp.Samples) * int64(sp.Rounds) * int64(max(1, sp.Portfolio))
}

// Canonical returns the spec with defaults applied and names
// normalized, or an error when the spec cannot name a tenant. growRounds
// is the server's default growth target.
func (sp Spec) Canonical(growRounds int) (Spec, error) {
	c := sp
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"procs", c.Procs, maxProcs},
		{"regions", c.Regions, maxRegions},
		{"samples", c.Samples, maxSamples},
		{"rounds", c.Rounds, maxRounds},
		{"portfolio", c.Portfolio, maxPortfolio},
	} {
		if f.val < 0 {
			return c, fmt.Errorf("spec: %s %d is negative", f.name, f.val)
		}
		if f.val > f.max {
			return c, fmt.Errorf("spec: %s %d exceeds the limit of %d", f.name, f.val, f.max)
		}
	}
	c.Env = strings.ToLower(strings.TrimSpace(c.Env))
	c.EnvText = strings.TrimSpace(c.EnvText)
	if (c.Env == "") == (c.EnvText == "") {
		return c, fmt.Errorf("spec: exactly one of env and env_text is required")
	}
	if c.Env != "" {
		// Canonical runs on every request: test the name, do not build the world.
		if names := parmp.EnvironmentNames(); !slices.Contains(names, c.Env) {
			return c, fmt.Errorf("spec: unknown environment %q (have %s)", c.Env, strings.Join(names, ", "))
		}
	}
	c.Robot = strings.ToLower(strings.TrimSpace(c.Robot))
	if c.Robot == "" {
		c.Robot = "point"
	}
	if _, err := robotHalves(c.Robot); err != nil {
		return c, err
	}
	c.Planner = strings.ToLower(strings.TrimSpace(c.Planner))
	if c.Planner == "" {
		c.Planner = "prm"
	}
	if !slices.Contains(parmp.PlannerNames(), c.Planner) {
		return c, fmt.Errorf("spec: unknown planner %q (want %s)", c.Planner, strings.Join(parmp.PlannerNames(), ", "))
	}
	if c.Portfolio > 0 {
		// A portfolio tenant always carries the race query, whatever the
		// planner family.
		if len(c.Root) == 0 || len(c.Goal) == 0 {
			return c, fmt.Errorf("spec: portfolio requires root and goal (the race query)")
		}
		c.Restarts = strings.ToLower(strings.TrimSpace(c.Restarts))
		if c.Restarts == "" {
			c.Restarts = "luby"
		}
		if c.Restarts != "luby" && c.Restarts != "none" {
			return c, fmt.Errorf("spec: unknown restart schedule %q (want luby or none)", c.Restarts)
		}
	} else {
		c.Restarts = ""
		switch c.Planner {
		case "prm":
			c.Root, c.Goal = nil, nil
		case "rrt":
			if len(c.Root) == 0 {
				return c, fmt.Errorf("spec: planner rrt requires root")
			}
			c.Goal = nil
		case "rrtconnect":
			if len(c.Root) == 0 || len(c.Goal) == 0 {
				return c, fmt.Errorf("spec: planner rrtconnect requires root and goal")
			}
		}
	}
	if c.Procs == 0 {
		c.Procs = 8
	}
	if c.Samples == 0 {
		c.Samples = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Strategy = strings.ToLower(strings.TrimSpace(c.Strategy))
	if c.Strategy == "" {
		c.Strategy = "repartition"
	}
	if _, _, err := parmp.StrategyByName(c.Strategy); err != nil {
		return c, fmt.Errorf("spec: %w", err)
	}
	if c.Rounds == 0 {
		c.Rounds = growRounds
	}
	if w := c.growWork(); w > maxGrowWork {
		return c, fmt.Errorf("spec: regions × samples × rounds × racers = %d sampling attempts exceeds the limit of %d", w, maxGrowWork)
	}
	return c, nil
}

// Key returns the canonical spec's tenant key. Only call on the result
// of Canonical: the key is the deterministic JSON encoding, so equal
// canonical specs — and only those — collide.
func (sp Spec) Key() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(err)
	}
	return string(b)
}

// robotHalves parses the Robot field into its half-extent parameters.
func robotHalves(robot string) ([]float64, error) {
	name, args, _ := strings.Cut(robot, ":")
	var want int
	switch name {
	case "point":
		if args != "" {
			return nil, fmt.Errorf("spec: robot point takes no parameters")
		}
		return nil, nil
	case "se2":
		want = 2
	case "rigid":
		want = 3
	default:
		return nil, fmt.Errorf("spec: unknown robot %q (want point, se2:hx,hy or rigid:hx,hy,hz)", robot)
	}
	parts := strings.Split(args, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("spec: robot %s needs %d half-extents", name, want)
	}
	halves := make([]float64, want)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0) {
			return nil, fmt.Errorf("spec: bad half-extent %q in robot %q", p, robot)
		}
		halves[i] = v
	}
	return halves, nil
}

// portfolioMaxWaves bounds background racing: an unsolvable race query
// stops burning CPU after this many lockstep waves (the tenant keeps
// serving its empty snapshot and surfaces grow_error in stats).
const portfolioMaxWaves = 256

// build constructs the tenant's engine — a plain Engine, or a Portfolio
// when the spec races one — from a canonical spec.
func (sp Spec) build() (engine, error) {
	var e *parmp.Environment
	if sp.Env != "" {
		e = parmp.EnvironmentByName(sp.Env)
		if e == nil {
			return nil, fmt.Errorf("unknown environment %q", sp.Env)
		}
	} else {
		var err error
		e, err = parmp.ParseEnvironment(strings.NewReader(sp.EnvText))
		if err != nil {
			return nil, fmt.Errorf("env_text: %w", err)
		}
	}
	halves, err := robotHalves(sp.Robot)
	if err != nil {
		return nil, err
	}
	var space *parmp.Space
	switch {
	case sp.Robot == "point":
		space = parmp.NewPointSpace(e)
	case strings.HasPrefix(sp.Robot, "se2"):
		if e.Dim() != 2 {
			return nil, fmt.Errorf("robot se2 needs a 2D environment, %s is %dD", e.Name, e.Dim())
		}
		space = parmp.NewSE2Space(e, halves[0], halves[1])
	default: // rigid
		if e.Dim() != 3 {
			return nil, fmt.Errorf("robot rigid needs a 3D environment, %s is %dD", e.Name, e.Dim())
		}
		space = parmp.NewRigidBodySpace(e, halves[0], halves[1], halves[2])
	}

	strategy, policy, err := parmp.StrategyByName(sp.Strategy)
	if err != nil {
		return nil, err
	}
	opts := parmp.Options{
		Procs:            sp.Procs,
		Regions:          sp.Regions,
		SamplesPerRegion: sp.Samples,
		NodesPerRegion:   sp.Samples,
		Seed:             sp.Seed,
		Strategy:         strategy,
		Policy:           policy,
	}

	// A canonical spec carries exactly the endpoints its planner (or its
	// portfolio's race query) uses.
	for _, v := range []struct {
		what string
		q    []float64
	}{{"root", sp.Root}, {"goal", sp.Goal}} {
		if v.q != nil && len(v.q) != space.Dim() {
			return nil, fmt.Errorf("%s has %d coordinates, space is %dD", v.what, len(v.q), space.Dim())
		}
	}
	if sp.Portfolio > 0 {
		pf, err := parmp.NewPortfolio(space, sp.Root, sp.Goal, opts, parmp.PortfolioOptions{
			Racers:   sp.Portfolio,
			Planners: []string{sp.Planner},
			Restarts: sp.Restarts,
			MaxWaves: portfolioMaxWaves,
		})
		return pf, err
	}
	return parmp.NewEngineByName(sp.Planner, space, sp.Root, sp.Goal, opts)
}

// Package balancebench defines the load-balance benchmark schema
// (BENCH_balance.json) and its regression gate — the balance sibling of
// internal/kernelbench's allocation gate and internal/servebench's
// tail-latency gate.
//
// The benchmark runs the closed-loop planner configuration (observed-cost
// repartitioning plus between-rounds diffusive rebalance) on the
// deterministic virtual-time backend, so every number here is
// machine-independent and bit-stable: the per-phase imbalance factor,
// utilization and steal efficiency that the paper's figures are built
// from (derived via internal/obsv) can be gated in CI against a
// checked-in baseline without flakiness.
package balancebench

import (
	"fmt"

	"parmp/internal/bench"
	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/obsv"
	"parmp/internal/work"
)

// PhaseBalance is one phase's load-balance profile, one row per
// (round, phase) of the run.
type PhaseBalance struct {
	Round int    `json:"round"`
	Phase string `json:"phase"`
	// Makespan is the phase's virtual completion time.
	Makespan float64 `json:"makespan"`
	// Utilization, Imbalance and StealEfficiency are obsv.Metrics ratios
	// (unit-free; see internal/obsv).
	Utilization     float64 `json:"utilization"`
	Imbalance       float64 `json:"imbalance"`
	StealEfficiency float64 `json:"steal_efficiency"`
	TasksMigrated   int     `json:"tasks_migrated"`
	// BusyCV is the coefficient of variation of per-worker busy time —
	// the paper's imbalance measure for the phase.
	BusyCV float64 `json:"busy_cv"`
}

// Result is one balance benchmark run: the BENCH_balance.json schema.
type Result struct {
	Source    string `json:"source"` // "mpbench"
	Env       string `json:"env"`
	Procs     int    `json:"procs"`
	Regions   int    `json:"regions"`
	Rounds    int    `json:"rounds"`
	Strategy  string `json:"strategy"`
	CostModel string `json:"cost_model"`
	Rebalance string `json:"rebalance"`

	// TotalVirtualTime is the cumulative virtual makespan of every round.
	TotalVirtualTime float64 `json:"total_virtual_time"`
	// ConstructCVMean averages BusyCV over the construct phases of the
	// warm rounds (round >= 1) — the quantity the observed-cost model
	// exists to shrink. With a single round it falls back to round 0.
	ConstructCVMean float64 `json:"construct_cv_mean"`
	// UtilizationMean averages utilization over all phases.
	UtilizationMean float64 `json:"utilization_mean"`
	// ImbalanceMax is the worst per-phase imbalance factor of the run.
	ImbalanceMax float64 `json:"imbalance_max"`
	// StealEfficiencyMin is the worst per-phase steal efficiency (1 when
	// no phase issued steals).
	StealEfficiencyMin float64 `json:"steal_efficiency_min"`
	// MigratedRegions / DiffusedRegions count ownership transfers due to
	// bulk repartitioning and the diffusive rebalance respectively.
	MigratedRegions int `json:"migrated_regions"`
	DiffusedRegions int `json:"diffused_regions"`

	Phases []PhaseBalance `json:"phases"`
}

// Config parameterizes Run. The zero value is not runnable; use
// DefaultConfig for the CI shape.
type Config struct {
	Env     string // environment name understood by env.ByName
	Procs   int
	Regions int
	Rounds  int
	Seed    int64
	// SamplesPerRegion per round (PRM).
	SamplesPerRegion int
}

// DefaultConfig is the CI benchmark shape: big enough that imbalance and
// stealing actually occur, small enough to finish in well under a second.
func DefaultConfig() Config {
	return Config{
		Env:              "med-cube",
		Procs:            8,
		Regions:          128,
		Rounds:           4,
		Seed:             1,
		SamplesPerRegion: 5,
	}
}

// Run executes the closed-loop PRM configuration (repartition on
// observed costs + diffusive rebalance) for cfg.Rounds rounds on the
// virtual-time backend and derives the balance profile. Deterministic:
// equal cfg always yields an identical Result.
func Run(cfg Config) (Result, error) {
	e := env.ByName(cfg.Env)
	if e == nil {
		return Result{}, fmt.Errorf("unknown environment %q", cfg.Env)
	}
	s := cspace.NewPointSpace(e)
	opts := core.Options{
		Procs:            cfg.Procs,
		Regions:          cfg.Regions,
		SamplesPerRegion: cfg.SamplesPerRegion,
		ConnectK:         3,
		Seed:             uint64(cfg.Seed),
		Profile:          work.Hopper(),
		Strategy:         core.Repartition,
		CostModel:        core.CostObserved,
		Rebalance:        core.RebalanceDiffusive,
	}
	eng, err := core.NewPRMEngine(s, opts)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < cfg.Rounds; i++ {
		if err := eng.GrowRound(nil); err != nil {
			return Result{}, err
		}
	}
	res := eng.Result()

	r := Result{
		Source:             "mpbench",
		Env:                cfg.Env,
		Procs:              cfg.Procs,
		Regions:            cfg.Regions,
		Rounds:             cfg.Rounds,
		Strategy:           opts.Strategy.String(),
		CostModel:          opts.CostModel.String(),
		Rebalance:          opts.Rebalance.String(),
		TotalVirtualTime:   res.TotalTime,
		MigratedRegions:    res.MigratedRegions,
		DiffusedRegions:    res.DiffusedRegions,
		StealEfficiencyMin: 1,
	}
	var utilSum, cvSum float64
	var cvN int
	for _, pr := range res.PhaseReports {
		m := obsv.Analyze(pr.Report)
		r.Phases = append(r.Phases, PhaseBalance{
			Round:           pr.Round,
			Phase:           pr.Phase,
			Makespan:        m.Makespan,
			Utilization:     m.Utilization,
			Imbalance:       m.Imbalance,
			StealEfficiency: m.StealEfficiency,
			TasksMigrated:   m.TasksMigrated,
			BusyCV:          m.BusyCV,
		})
		utilSum += m.Utilization
		if m.Imbalance > r.ImbalanceMax {
			r.ImbalanceMax = m.Imbalance
		}
		if m.StealEfficiency < r.StealEfficiencyMin {
			r.StealEfficiencyMin = m.StealEfficiency
		}
		if pr.Phase == "construct" && (pr.Round >= 1 || cfg.Rounds == 1) {
			cvSum += m.BusyCV
			cvN++
		}
	}
	if n := len(r.Phases); n > 0 {
		r.UtilizationMean = utilSum / float64(n)
	}
	if cvN > 0 {
		r.ConstructCVMean = cvSum / float64(cvN)
	}
	return r, nil
}

// The balance regression thresholds. The benchmark is deterministic, so
// any drift is a real behavior change: the thresholds exist to let
// intentional small improvements land without a baseline refresh, not to
// absorb noise.
const (
	// MaxRegress is the fraction by which the warm-round construct CV,
	// and the total virtual time, may exceed the baseline's.
	MaxRegress = 0.10
	// MaxUtilDrop is how many absolute points mean utilization may fall
	// below the baseline's.
	MaxUtilDrop = 0.05
)

// Check gates r against baseline, reporting every violation.
func Check(r, baseline Result) error {
	return bench.Check("balance gate", []bench.Limit{
		{Name: "construct CV", Cur: r.ConstructCVMean, Ref: baseline.ConstructCVMean, Kind: bench.Regress, Tol: MaxRegress},
		{Name: "mean utilization", Cur: r.UtilizationMean, Ref: baseline.UtilizationMean, Kind: bench.Drop, Tol: MaxUtilDrop},
		{Name: "total virtual time", Cur: r.TotalVirtualTime, Ref: baseline.TotalVirtualTime, Kind: bench.Regress, Tol: MaxRegress},
	})
}

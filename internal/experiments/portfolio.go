package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parmp"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/servebench"
)

// portfolioMaxWaves censors a run that has not solved: stuck RRT-Connect
// trees grow superlinearly expensive per wave, so an uncapped stuck run
// dominates the experiment's wall clock without changing its verdict.
// Censored runs report the elapsed time at the cutoff — a lower bound on
// the true solve time, which only understates the single-config tail the
// portfolio is beating.
const portfolioMaxWaves = 1024

// portfolioUnitRounds is the Luby base budget. The walls query solves in
// roughly 200-360 rounds when the bidirectional search is not stuck, so
// one unit comfortably covers a healthy run and a restart only fires on
// the stuck ones it is meant to kill.
const portfolioUnitRounds = 384

// portfolioOpts sizes one racer's engine for the tail experiment:
// deliberately lean rounds (two nodes per region, eight regions) so
// rounds stay cheap and time-to-first-solution is dominated by whether
// the seed's bidirectional trees lock onto the right doorways — the
// heavy-tailed regime the portfolio is built for.
func portfolioOpts(seed uint64) parmp.Options {
	return parmp.Options{
		Procs:            2,
		Regions:          8,
		SamplesPerRegion: 4,
		NodesPerRegion:   2,
		Step:             0.05,
		Strategy:         parmp.Repartition,
		Seed:             seed,
	}
}

// portfolioRun measures wall-clock milliseconds to first solution for one
// configuration. Runs that hit the wave cutoff are censored (solved
// false) and report elapsed time at the cutoff. The race report is
// returned for overhead accounting either way.
func portfolioRun(space *parmp.Space, start, goal parmp.Config, opts parmp.Options, po parmp.PortfolioOptions) (float64, *parmp.PortfolioReport, bool) {
	pf := must(parmp.NewPortfolio(space, start, goal, opts, po))
	t0 := time.Now()
	_, err := pf.Solve(context.Background())
	ms := sinceMS(t0)
	if err != nil && !errors.Is(err, parmp.ErrNoSolution) {
		panic(fmt.Sprintf("experiments: portfolio run failed: %v", err))
	}
	return ms, pf.Report(), err == nil
}

// portfolioTail measures the tail of time-to-first-solution on the
// narrow-passage walls environment. RRT-Connect there is classically
// heavy-tailed: most seeds thread the doorways in a few hundred rounds,
// but a fraction lock both trees onto mismatched doors and stay stuck
// essentially forever. The table races one single-seed RRT-Connect
// configuration against two 4-racer portfolios over derived seeds — one
// without restarts (seed diversity alone) and one on the Luby schedule —
// through the identical parmp.Portfolio machinery, so the comparison
// isolates the portfolio effect, not code-path differences. The notes
// quantify p50/p99/p999 per column, censored-run counts, and the losers'
// cancellation overhead (rounds grown by non-winning racers per solved
// query).
func portfolioTail(sc Scale) *metrics.Table {
	trials := sc.PortfolioTrials
	e := env.ByName("walls")
	space := parmp.NewPointSpace(e)
	start, goal := corners(e)

	configs := []struct {
		label string
		po    parmp.PortfolioOptions
	}{
		{"single-rrtconnect-ms", parmp.PortfolioOptions{
			Racers: 1, Planners: []string{"rrtconnect"}, Restarts: "none", MaxWaves: portfolioMaxWaves}},
		{"portfolio4-seeds-ms", parmp.PortfolioOptions{
			Racers: 4, Planners: []string{"rrtconnect"}, Restarts: "none", MaxWaves: portfolioMaxWaves}},
		{"portfolio4-luby-ms", parmp.PortfolioOptions{
			Racers: 4, Planners: []string{"rrtconnect"}, Restarts: "luby", UnitRounds: portfolioUnitRounds, MaxWaves: portfolioMaxWaves}},
	}
	t := newTable(fmt.Sprintf("Portfolio vs Single Config: Time to First Solution, walls (%d trials, wall clock)", trials), "trial#")
	for _, c := range configs {
		t.Columns = append(t.Columns, c.label)
	}
	samples := make([][]float64, len(configs))
	censored := make([]int, len(configs))
	var loserRounds, winnerRounds, stopped, restarts, lubySolved int
	for i := 0; i < trials; i++ {
		row := make([]float64, len(configs))
		for j, c := range configs {
			ms, rep, solved := portfolioRun(space, start, goal, portfolioOpts(sc.Seed+uint64(i)), c.po)
			row[j] = ms
			samples[j] = append(samples[j], ms)
			if !solved {
				censored[j]++
			}
			if c.po.Restarts == "luby" && solved {
				lubySolved++
				restarts += rep.Restarts
				for ri, rr := range rep.Racers {
					if ri == rep.Winner {
						winnerRounds += rr.Rounds
					} else {
						loserRounds += rr.Rounds
					}
					if rr.Stopped {
						stopped++
					}
				}
			}
		}
		t.AddRow(float64(i), row...)
	}
	p99 := make([]float64, len(configs))
	for j, c := range configs {
		p := servebench.Compute(samples[j])
		p99[j] = p.P99
		t.Notes = append(t.Notes, fmt.Sprintf("%s: p50=%.0fms p99=%.0fms p999=%.0fms max=%.0fms censored=%d/%d",
			c.label, p.P50, p.P99, p.P999, p.Max, censored[j], trials))
	}
	singleP99, pfP99 := p99[0], p99[2]
	t.Notes = append(t.Notes, fmt.Sprintf("portfolio4-luby p99 vs single p99: %.0fms vs %.0fms (%.2fx better)",
		pfP99, singleP99, singleP99/pfP99))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"censored runs hit the %d-wave cutoff unsolved and report elapsed time at the cutoff (a lower bound)",
		portfolioMaxWaves))
	if lubySolved > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"luby portfolio loser overhead: %.0f loser rounds per solved query (winner %.0f), %.1f racers cancelled mid-race, %.2f Luby restarts per query",
			float64(loserRounds)/float64(lubySolved), float64(winnerRounds)/float64(lubySolved),
			float64(stopped)/float64(lubySolved), float64(restarts)/float64(lubySolved)))
	}
	return t
}

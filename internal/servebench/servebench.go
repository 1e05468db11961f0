// Package servebench defines the serving-tier benchmark schema
// (BENCH_serve.json), reads and writes it as indented JSON, and gates a
// run against its thresholds and a checked-in baseline.
//
// Sampling-based planners have heavy-tailed solve and query times, so
// the contract here is percentile-first: cmd/mploadgen, driving a live
// mpserved, reports p50/p99/p999, which lets CI fail a build on a
// tail-latency regression against a checked-in baseline, not just on a
// mean shift.
package servebench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Percentiles summarizes a latency distribution in microseconds.
type Percentiles struct {
	P50  float64 `json:"p50_us"`
	P90  float64 `json:"p90_us"`
	P99  float64 `json:"p99_us"`
	P999 float64 `json:"p999_us"`
	Max  float64 `json:"max_us"`
}

// Compute sorts us (in place) and extracts the summary percentiles.
// Empty input yields zeros.
func Compute(us []float64) Percentiles {
	if len(us) == 0 {
		return Percentiles{}
	}
	sort.Float64s(us)
	at := func(p float64) float64 {
		i := int(p * float64(len(us)-1))
		return us[i]
	}
	return Percentiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  us[len(us)-1],
	}
}

// Result is one serving benchmark run: the BENCH_serve.json schema.
type Result struct {
	// Source identifies the producer: "mploadgen" (over-the-wire against
	// mpserved).
	Source string `json:"source"`
	Env    string `json:"env"`
	// Mode is the load shape: "closed" (fixed concurrency) or "open"
	// (fixed arrival rate).
	Mode    string  `json:"mode,omitempty"`
	Workers int     `json:"workers,omitempty"`
	RateQPS float64 `json:"rate_qps,omitempty"`

	Queries     int64   `json:"queries"`
	Solved      int64   `json:"solved"`
	Errors      int64   `json:"errors"` // non-2xx responses + transport failures
	ErrorRate   float64 `json:"error_rate"`
	Rejected    int64   `json:"rejected,omitempty"` // 429 backpressure rejections (subset of Errors)
	DurationSec float64 `json:"duration_sec"`
	Throughput  float64 `json:"throughput_qps"`

	// Latency is what the client observed, over the wire; in open-loop
	// mode it runs from the instant the request was due, and Late is how
	// long after that instant the generator sent it (a busy generator's
	// backlog, included in Latency).
	Latency Percentiles  `json:"latency"`
	Late    *Percentiles `json:"late_us,omitempty"`
	// Serve is the server-side processing time per request (mploadgen
	// reads it off each response).
	Serve *Percentiles `json:"serve,omitempty"`
	// CacheHit is the server-side latency of path-cache hits only.
	CacheHit     *Percentiles `json:"cache_hit,omitempty"`
	CacheHitRate float64      `json:"cache_hit_rate,omitempty"`
	// Mutations counts environment mutations issued during the run
	// (mploadgen -mutate-every); StalePaths counts probe responses that
	// returned a path through a freshly-added obstacle — any nonzero
	// value is a cache-invalidation bug.
	Mutations  int64 `json:"mutations,omitempty"`
	StalePaths int64 `json:"stale_paths,omitempty"`
}

// WriteFile writes r as indented JSON to path ("-" for stdout).
func WriteFile(path string, r Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a Result from the JSON file at path.
func Load(path string) (Result, error) {
	var r Result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Gate bundles the serving regression thresholds.
type Gate struct {
	// MaxErrorRate fails the run when Errors/Queries exceeds it.
	// Negative disables.
	MaxErrorRate float64
	// MaxRegress fails the run when the client p99 exceeds the
	// baseline's by more than this fraction (0.5 = up to 1.5x the
	// baseline p99 passes). Ignored without a baseline. Negative
	// disables.
	MaxRegress float64
}

// Check enforces g against r, comparing tails to baseline when non-nil.
// It returns every violation, not just the first. A baseline p99 that is
// not positive (written before the field existed) gates nothing.
func (g Gate) Check(r Result, baseline *Result) error {
	var bad strings.Builder
	if g.MaxErrorRate >= 0 && r.ErrorRate > g.MaxErrorRate {
		fmt.Fprintf(&bad, "\n  error rate (%d/%d) %.6g exceeds %.6g", r.Errors, r.Queries, r.ErrorRate, g.MaxErrorRate)
	}
	if baseline != nil && g.MaxRegress >= 0 {
		ref := baseline.Latency.P99
		if lim := ref * (1 + g.MaxRegress); ref > 0 && r.Latency.P99 > lim {
			fmt.Fprintf(&bad, "\n  latency p99 (µs) %.6g exceeds reference %.6g by more than %.0f%% (limit %.6g)",
				r.Latency.P99, ref, 100*g.MaxRegress, lim)
		}
	}
	if bad.Len() == 0 {
		return nil
	}
	return fmt.Errorf("serve gate:%s", bad.String())
}

// Package steal implements the victim-selection policies for work
// stealing in parallel sampling-based motion planning (Section III-A of
// the paper):
//
//   - RAND-K: request work from k random processors (k=8 in the paper's
//     evaluation), re-randomized on every attempt;
//   - DIFFUSIVE: processors are arranged in a 2D mesh and underloaded
//     processors ask their mesh neighbours;
//   - HYBRID: diffusive first; if no neighbour can serve the request,
//     fall back to random victims.
//
// Policies are pure: they produce candidate victim lists, and the
// distributed machine (simulated or real) performs the requests.
package steal

import (
	"fmt"

	"parmp/internal/rng"
)

// Policy produces candidate victims for a thief's steal round.
type Policy interface {
	// Victims returns the processors to ask, in order, for the given
	// round. attempt counts completed unsuccessful rounds, letting hybrid
	// policies escalate. The thief itself must never appear.
	Victims(thief, procs, attempt int, r *rng.Stream) []int
	// Name identifies the policy in reports.
	Name() string
}

// RandK asks K distinct random victims per round ("not necessarily the
// same k processors for each request").
type RandK struct {
	K int
}

// Name implements Policy.
func (p RandK) Name() string { return fmt.Sprintf("rand-%d", p.K) }

// Victims implements Policy.
func (p RandK) Victims(thief, procs, attempt int, r *rng.Stream) []int {
	if procs <= 1 {
		return nil
	}
	k := p.K
	if k > procs-1 {
		k = procs - 1
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(procs)
		if v == thief || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// MeshDims returns near-square 2D mesh dimensions (rows, cols) with
// rows*cols >= procs and cols >= rows, matching the paper's assumption
// that "processors are assumed to be arranged in a 2D mesh".
func MeshDims(procs int) (rows, cols int) {
	if procs <= 0 {
		return 0, 0
	}
	rows = 1
	for rows*rows <= procs {
		rows++
	}
	rows--
	cols = (procs + rows - 1) / rows
	return rows, cols
}

// Diffusive asks the thief's 2D-mesh neighbours (up, down, left, right),
// in a rotation that varies by attempt so no neighbour is systematically
// preferred.
type Diffusive struct{}

// Name implements Policy.
func (Diffusive) Name() string { return "diffusive" }

// Victims implements Policy.
func (Diffusive) Victims(thief, procs, attempt int, r *rng.Stream) []int {
	neigh := MeshNeighbors(thief, procs)
	if len(neigh) == 0 {
		return nil
	}
	rot := attempt % len(neigh)
	out := make([]int, 0, len(neigh))
	for i := range neigh {
		out = append(out, neigh[(i+rot)%len(neigh)])
	}
	return out
}

// MeshNeighbors returns the mesh neighbours of proc in a MeshDims(procs)
// arrangement, skipping coordinates that fall outside the (possibly
// ragged) last row.
func MeshNeighbors(proc, procs int) []int {
	rows, cols := MeshDims(procs)
	if rows == 0 {
		return nil
	}
	r0, c0 := proc/cols, proc%cols
	var out []int
	for _, d := range [][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
		rr, cc := r0+d[0], c0+d[1]
		if rr < 0 || cc < 0 || rr >= rows || cc >= cols {
			continue
		}
		v := rr*cols + cc
		if v >= procs || v == proc {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Hybrid runs one Diffusive round first and escalates to RandK once it
// was unsuccessful ("in the event that no request could be serviced,
// requests are sent to random processors").
type Hybrid struct {
	K int
}

// Name implements Policy.
func (p Hybrid) Name() string { return "hybrid" }

// Victims implements Policy.
func (p Hybrid) Victims(thief, procs, attempt int, r *rng.Stream) []int {
	if attempt == 0 {
		return Diffusive{}.Victims(thief, procs, attempt, r)
	}
	return RandK{K: p.K}.Victims(thief, procs, attempt, r)
}

// ByName constructs a policy from its report name: "rand-8", "diffusive",
// "hybrid". ok is false for unknown names.
func ByName(name string) (Policy, bool) {
	switch name {
	case "diffusive":
		return Diffusive{}, true
	case "hybrid":
		return Hybrid{K: 8}, true
	case "rand-8":
		return RandK{K: 8}, true
	}
	return nil, false
}

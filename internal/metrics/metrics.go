// Package metrics provides the statistical summaries and table formatting
// the experiment harness uses to report results in the shape of the
// paper's figures: coefficients of variation, per-processor load
// profiles, and labelled series printed as aligned text tables.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CV returns the coefficient of variation sigma/mu — the paper's measure
// of load imbalance. It returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return StdDev(xs) / mu
}

// Pearson returns the Pearson correlation coefficient of xs and ys. It
// returns 0 when the correlation is undefined: mismatched or empty
// inputs, or either series with zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Table is a labelled result table: one row per sweep point, one column
// per series, mirroring one paper figure.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	XS      []float64
	Rows    [][]float64
	Notes   []string
}

// AddRow appends a sweep point.
func (t *Table) AddRow(x float64, values ...float64) {
	t.XS = append(t.XS, x)
	row := append([]float64(nil), values...)
	t.Rows = append(t.Rows, row)
}

// Column returns the series for column name, or nil if absent.
func (t *Table) Column(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[idx]
	}
	return out
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	for i, x := range t.XS {
		fmt.Fprintf(&b, "%-12g", x)
		for _, v := range t.Rows[i] {
			fmt.Fprintf(&b, " %16.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

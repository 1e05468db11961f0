// Package bench is what the two CI gate harnesses (kernelbench,
// servebench) share: result files as indented JSON, and one limit table
// that reports every violated threshold. Each harness keeps its own
// result schema and builds its own table; what a threshold means is
// decided once, here.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// WriteFile writes v as indented JSON to path ("-" for stdout).
func WriteFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
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

// Load reads a T from the JSON file at path.
func Load[T any](path string) (T, error) {
	var v T
	b, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// Kind is how a Limit compares the current value with its reference.
type Kind int

const (
	// Ceiling: Cur must not exceed Ref.
	Ceiling Kind = iota
	// Regress: Cur must not exceed Ref by more than the fraction Tol.
	// A reference that is not positive (a baseline written before the
	// field existed) gates nothing.
	Regress
)

// Limit is one row of a gate's table.
type Limit struct {
	Name     string
	Cur, Ref float64
	Kind     Kind
	Tol      float64
}

// violation describes how l is violated, or returns "".
func (l Limit) violation() string {
	switch l.Kind {
	case Ceiling:
		if l.Cur > l.Ref {
			return fmt.Sprintf("%s %.6g exceeds %.6g", l.Name, l.Cur, l.Ref)
		}
	case Regress:
		if limit := l.Ref * (1 + l.Tol); l.Ref > 0 && l.Cur > limit {
			return fmt.Sprintf("%s %.6g exceeds reference %.6g by more than %.0f%% (limit %.6g)",
				l.Name, l.Cur, l.Ref, 100*l.Tol, limit)
		}
	}
	return ""
}

// Check enforces every limit and returns one error, headed by name,
// listing every violation — not just the first.
func Check(name string, limits []Limit) error {
	var bad strings.Builder
	for _, l := range limits {
		if v := l.violation(); v != "" {
			bad.WriteString("\n  " + v)
		}
	}
	if bad.Len() == 0 {
		return nil
	}
	return fmt.Errorf("%s:%s", name, bad.String())
}

package env

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"parmp/internal/geom"
)

// Parse reads an environment from a simple line-oriented text format:
//
//	# comment
//	name my-scene
//	bounds x0 y0 [z0] x1 y1 [z1]
//	box    x0 y0 [z0] x1 y1 [z1]
//	sphere cx cy [cz] r
//
// The bounds line determines the dimension (2D or 3D); it must appear
// once, before any obstacle. Every number must be finite. Blank lines
// and #-comments are ignored.
func Parse(r io.Reader) (*Environment, error) {
	e := &Environment{Name: "custom"}
	dim := 0
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op, args := fields[0], fields[1:]
		if op == "name" {
			if len(args) != 1 {
				return nil, fmt.Errorf("env: line %d: name wants one token", lineNo)
			}
			e.Name = args[0]
			continue
		}
		nums := make([]float64, len(args))
		numeric := true
		for i, a := range args {
			v, err := strconv.ParseFloat(a, 64)
			if err != nil {
				numeric = false
				break
			}
			// NaN fails every ordered comparison below, so it would pass
			// them all.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("env: line %d: non-finite number %q", lineNo, a)
			}
			nums[i] = v
		}
		switch op {
		case "bounds":
			if dim != 0 {
				// A second line could change the dimension under the
				// obstacles already read.
				return nil, fmt.Errorf("env: line %d: bounds given twice", lineNo)
			}
			if !numeric || (len(nums) != 4 && len(nums) != 6) {
				return nil, fmt.Errorf("env: line %d: bounds wants 4 (2D) or 6 (3D) numbers", lineNo)
			}
			dim = len(nums) / 2
			lo, hi := geom.Vec(nums[:dim]).Clone(), geom.Vec(nums[dim:]).Clone()
			for i := 0; i < dim; i++ {
				if lo[i] >= hi[i] {
					return nil, fmt.Errorf("env: line %d: degenerate bounds", lineNo)
				}
			}
			e.Bounds = geom.NewAABB(lo, hi)
		case "box":
			if dim == 0 {
				return nil, fmt.Errorf("env: line %d: box before bounds", lineNo)
			}
			if !numeric || len(nums) != 2*dim {
				return nil, fmt.Errorf("env: line %d: box wants %d numbers", lineNo, 2*dim)
			}
			lo, hi := geom.Vec(nums[:dim]).Clone(), geom.Vec(nums[dim:]).Clone()
			for i := 0; i < dim; i++ {
				if lo[i] > hi[i] {
					lo[i], hi[i] = hi[i], lo[i]
				}
			}
			e.Obstacles = append(e.Obstacles, BoxObstacle{Box: geom.NewAABB(lo, hi)})
		case "sphere":
			if dim == 0 {
				return nil, fmt.Errorf("env: line %d: sphere before bounds", lineNo)
			}
			if !numeric || len(nums) != dim+1 {
				return nil, fmt.Errorf("env: line %d: sphere wants %d numbers", lineNo, dim+1)
			}
			radius := nums[dim]
			if radius <= 0 {
				return nil, fmt.Errorf("env: line %d: sphere radius must be positive", lineNo)
			}
			e.Obstacles = append(e.Obstacles, SphereObstacle{
				Center: geom.Vec(nums[:dim]).Clone(),
				Radius: radius,
			})
		default:
			return nil, fmt.Errorf("env: line %d: unknown directive %q", lineNo, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dim == 0 {
		return nil, fmt.Errorf("env: missing bounds line")
	}
	return e, nil
}

// Write emits the environment in the format Parse reads. Only box and
// sphere obstacles are representable.
func Write(w io.Writer, e *Environment) error {
	if _, err := fmt.Fprintf(w, "name %s\n", e.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "bounds%s%s\n", vecStr(e.Bounds.Lo), vecStr(e.Bounds.Hi)); err != nil {
		return err
	}
	for _, o := range e.Obstacles {
		switch ob := o.(type) {
		case BoxObstacle:
			if _, err := fmt.Fprintf(w, "box%s%s\n", vecStr(ob.Box.Lo), vecStr(ob.Box.Hi)); err != nil {
				return err
			}
		case SphereObstacle:
			if _, err := fmt.Fprintf(w, "sphere%s %g\n", vecStr(ob.Center), ob.Radius); err != nil {
				return err
			}
		default:
			return fmt.Errorf("env: obstacle type %T not representable in text format", o)
		}
	}
	return nil
}

func vecStr(v geom.Vec) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, " %g", x)
	}
	return b.String()
}

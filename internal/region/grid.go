package region

import (
	"fmt"

	"parmp/internal/geom"
)

// GridSpec describes a uniform grid subdivision of the positional C-space
// dimensions (Algorithm 1, line 2 of the paper).
type GridSpec struct {
	// Cells per dimension; len(Cells) determines how many leading C-space
	// dimensions are subdivided (x, y[, z] for typical workspaces).
	Cells []int
}

// NumRegions returns the total cell count of the spec.
func (s GridSpec) NumRegions() int {
	n := 1
	for _, c := range s.Cells {
		n *= c
	}
	return n
}

// SplitEvenly returns a GridSpec subdividing dims dimensions into at least
// n total regions, keeping per-dimension counts as equal as possible.
func SplitEvenly(dims, n int) GridSpec {
	cells := make([]int, dims)
	for i := range cells {
		cells[i] = 1
	}
	for total := 1; total < n; {
		// Grow the smallest dimension.
		mi := 0
		for i := 1; i < dims; i++ {
			if cells[i] < cells[mi] {
				mi = i
			}
		}
		cells[mi]++
		total = 1
		for _, c := range cells {
			total *= c
		}
	}
	return GridSpec{Cells: cells}
}

// UniformGrid subdivides bounds into the spec's cells and builds the
// region graph with edges between face-adjacent cells. Region IDs are
// row-major over the grid coordinates. A spec whose dimensionality does
// not fit the bounds (or with a non-positive cell count) is a
// configuration error, not a crash: serving processes validate plans
// built from user input, so malformed subdivisions must surface as
// errors.
func UniformGrid(bounds geom.AABB, spec GridSpec) (*Graph, error) {
	dims := len(spec.Cells)
	if dims == 0 || dims > bounds.Dim() {
		return nil, fmt.Errorf("region: grid subdivides %d dimensions but the C-space bounds have %d; configure at most bounds-many cell dimensions", dims, bounds.Dim())
	}
	for i, c := range spec.Cells {
		if c <= 0 {
			return nil, fmt.Errorf("region: grid dimension %d has non-positive cell count %d", i, c)
		}
	}
	n := spec.NumRegions()
	regions := make([]*Region, n)
	strides := make([]int, dims)
	stride := 1
	for i := dims - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= spec.Cells[i]
	}
	cellExtent := make([]float64, dims)
	for i := 0; i < dims; i++ {
		cellExtent[i] = (bounds.Hi[i] - bounds.Lo[i]) / float64(spec.Cells[i])
	}

	coord := make([]int, dims)
	for id := 0; id < n; id++ {
		// Decode row-major id into grid coordinates.
		rem := id
		for i := 0; i < dims; i++ {
			coord[i] = rem / strides[i]
			rem %= strides[i]
		}
		lo := make(geom.Vec, dims)
		hi := make(geom.Vec, dims)
		for i := 0; i < dims; i++ {
			lo[i] = bounds.Lo[i] + float64(coord[i])*cellExtent[i]
			hi[i] = lo[i] + cellExtent[i]
		}
		regions[id] = &Region{ID: id, Kind: KindBox, Box: geom.NewAABB(lo, hi)}
	}

	// Face adjacency: +1 along each dimension.
	var ends [][2]int
	for id := 0; id < n; id++ {
		rem := id
		for i := 0; i < dims; i++ {
			coord[i] = rem / strides[i]
			rem %= strides[i]
		}
		for i := 0; i < dims; i++ {
			if coord[i]+1 < spec.Cells[i] {
				ends = append(ends, [2]int{id, id + strides[i]})
			}
		}
	}

	return newGraph(regions, ends), nil
}

// MustUniformGrid is UniformGrid for specs that are valid by construction
// (analytic models, tests). It panics on error — never use it on
// user-supplied configuration; the planning entry points validate and
// return errors instead.
func MustUniformGrid(bounds geom.AABB, spec GridSpec) *Graph {
	g, err := UniformGrid(bounds, spec)
	if err != nil {
		panic(err)
	}
	return g
}

// NaiveColumnPartition assigns regions to p processors by contiguous
// blocks of the leading grid dimension ("a 1D partitioning of the region
// mesh [assigning] a balanced number of region columns to processors") —
// the paper's baseline mapping. It works for any region count by blocking
// contiguous ID ranges, which coincides with column blocks for row-major
// grids.
func NaiveColumnPartition(rg *Graph, p int) {
	n := rg.NumRegions()
	for i := 0; i < n; i++ {
		owner := i * p / n
		if owner >= p {
			owner = p - 1
		}
		rg.Owner[i] = owner
	}
}

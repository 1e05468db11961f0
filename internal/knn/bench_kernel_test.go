package knn

import (
	"testing"

	"parmp/internal/rng"
)

// BenchmarkKernelNearest measures steady-state kd-tree queries (the
// per-node lookup inside ConnectRegionTree).
func BenchmarkKernelNearest(b *testing.B) {
	r := rng.New(17)
	pts := randomPoints(r, 1000, 3)
	tree := Build(pts)
	qs := randomPoints(r, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(qs[i%len(qs)], 8)
	}
}

// BenchmarkKernelBuild measures kd-tree construction for a large region.
func BenchmarkKernelBuild(b *testing.B) {
	r := rng.New(23)
	pts := randomPoints(r, 20000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

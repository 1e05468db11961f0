//go:build !race

package knn

import (
	"testing"
	"time"

	"parmp/internal/rng"
)

// TestBatchIsNotATax holds NearestBatch to at most 1.15× the time of the
// same queries answered one NearestInto at a time. Both sides run in
// this process on this host, so the ratio needs no stored baseline; a
// noisy host fails it only if all five repetitions read above the bound.
func TestBatchIsNotATax(t *testing.T) {
	r := rng.New(17)
	tree := Build(randomPoints(r, 1000, 3))
	qs := randomPoints(r, 64, 3)
	var sc QueryScratch
	var dst []Result
	var offs []int
	ratios := make([]float64, 5)
	for rep := range ratios {
		start := time.Now()
		for i := 0; i < 100; i++ {
			for _, q := range qs {
				dst, _ = tree.NearestInto(&sc, q, 8, -1, dst[:0])
			}
		}
		mid := time.Now()
		for i := 0; i < 100; i++ {
			dst, offs, _ = tree.NearestBatch(&sc, qs, 8, -1, dst[:0], offs)
		}
		ratios[rep] = float64(time.Since(mid)) / float64(mid.Sub(start))
	}
	t.Logf("NearestBatch / NearestInto per query: %.2f", ratios)
	if min(ratios[0], ratios[1], ratios[2], ratios[3], ratios[4]) > 1.15 {
		t.Fatalf("NearestBatch costs %.2f× NearestInto per query in every repetition, want at most 1.15×", ratios)
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, 1)
	b := Derive(7, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams with distinct ids collided %d times", same)
	}
}

func TestDeriveDeterminism(t *testing.T) {
	f := func(seed, id uint64) bool {
		return Derive(seed, id).Uint64() == Derive(seed, id).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(2)
	for i := 0; i < 10000; i++ {
		v := s.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range out of [-3,5): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[s.Intn(7)]++
	}
	for d, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) digit %d count %d far from uniform 10000", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(0).Intn(0)
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v far from 1", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

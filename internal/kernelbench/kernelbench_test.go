package kernelbench

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"parmp/internal/bench"
)

// TestRunOneKernel smoke-tests the testing.Benchmark plumbing on the
// cheapest kernel with a tiny benchtime.
func TestRunOneKernel(t *testing.T) {
	if err := flag.Set("test.benchtime", "10x"); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(benchLocalPlan)
	if r.N < 10 {
		t.Fatalf("benchmark ran %d iterations, want >= 10", r.N)
	}
	if a := r.AllocsPerOp(); a > 5 {
		t.Fatalf("LocalPlan kernel allocates %d allocs/op, want near zero", a)
	}
}

func TestKernelsNamedAndSorted(t *testing.T) {
	ks := Kernels()
	if len(ks) < 6 {
		t.Fatalf("kernel suite has %d entries, want at least 6", len(ks))
	}
	for i, k := range ks {
		if k.Name == "" || k.Bench == nil {
			t.Fatalf("kernel %d incomplete: %+v", i, k)
		}
		if i > 0 && ks[i-1].Name >= k.Name {
			t.Fatalf("kernels not sorted: %q before %q", ks[i-1].Name, k.Name)
		}
	}
	// Check skips a pair with a side missing from the results, so a
	// renamed or dropped kernel would switch its batch gate off silently.
	names := make(map[string]bool, len(ks))
	for _, k := range ks {
		names[k.Name] = true
	}
	for _, p := range batchPairs {
		if !names[p.batch] || !names[p.scalar] {
			t.Errorf("batchPairs names %q vs %q, not both in Kernels()", p.batch, p.scalar)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	in := []Result{
		{Name: "A", Iterations: 3, NsPerOp: 12.5, AllocsPerOp: 1, BytesPerOp: 64},
		{Name: "B", Iterations: 9, NsPerOp: 0.5},
	}
	path := filepath.Join(t.TempDir(), "BENCH_kernels.json")
	if err := bench.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := bench.Load[[]Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestRunBatchKernel smoke-tests a batched kernel body and its
// steady-state allocation contract.
func TestRunBatchKernel(t *testing.T) {
	if err := flag.Set("test.benchtime", "10x"); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(benchLocalPlanBatch)
	if r.N < 10 {
		t.Fatalf("benchmark ran %d iterations, want >= 10", r.N)
	}
	if a := r.AllocsPerOp(); a > 5 {
		t.Fatalf("LocalPlanBatch kernel allocates %d allocs/op, want near zero", a)
	}
}

func TestCheckBatchNs(t *testing.T) {
	rs := []Result{
		{Name: "LocalPlan", NsPerOp: 100, ItemsPerOp: 1, NsPerItem: 100},
		{Name: "LocalPlanBatch", NsPerOp: 110, ItemsPerOp: 1, NsPerItem: 110},
		{Name: "NearestInto", NsPerOp: 100, ItemsPerOp: 1, NsPerItem: 100},
		{Name: "NearestBatch", NsPerOp: 6400, ItemsPerOp: 64, NsPerItem: 100},
	}
	if err := Check(rs); err != nil {
		t.Fatalf("within-ratio results failed the gate: %v", err)
	}
	rs[1].NsPerItem = 120 // 1.2x > BatchMaxRatio
	err := Check(rs)
	if err == nil {
		t.Fatal("expected ratio gate failure")
	}
	if !strings.Contains(err.Error(), "LocalPlanBatch") || strings.Contains(err.Error(), "NearestBatch") {
		t.Fatalf("error should name only the offending pair: %v", err)
	}
	// Pairs with a missing side are skipped, not failed.
	if err := Check(rs[1:2]); err != nil {
		t.Fatalf("missing scalar side should be skipped: %v", err)
	}
}

func TestCheckMaxAllocs(t *testing.T) {
	rs := []Result{
		{Name: "ok", AllocsPerOp: 2},
		{Name: "hot", AllocsPerOp: MaxAllocs},
	}
	if err := Check(rs); err != nil {
		t.Fatalf("unexpected failure at threshold: %v", err)
	}
	rs[1].AllocsPerOp = MaxAllocs + 1
	err := Check(rs)
	if err == nil {
		t.Fatal("expected regression error")
	}
	if !strings.Contains(err.Error(), "hot") || strings.Contains(err.Error(), "ok ") {
		t.Fatalf("error should name only the offender: %v", err)
	}
}

// BenchmarkKernel runs every kernel of the suite as a sub-benchmark:
// `go test -bench Kernel` and `mpbench -kernels` time the same bodies.
func BenchmarkKernel(b *testing.B) {
	for _, k := range Kernels() {
		b.Run(k.Name, k.Bench)
	}
}

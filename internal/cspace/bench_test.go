package cspace

import (
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// BenchmarkKernelConfigFree measures rigid-body validity checking — the
// inner collision kernel of the PRM experiments — through the pooled
// scratch path that planner tasks use.
func BenchmarkKernelConfigFree(b *testing.B) {
	e := env.MedCube()
	body := NewRigidBox(0.03, 0.02, 0.01)
	s := NewRigidBodySpace(e, body)
	r := rng.New(11)
	var c Counters
	var sc Scratch
	qs := make([]Config, 64)
	for i := range qs {
		qs[i] = s.SampleIn(s.Bounds, r, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ValidS(qs[i%len(qs)], &sc, &c)
	}
}

// BenchmarkKernelEdgeFreeLinkage measures articulated-linkage edge
// sweeping (joint position buffers dominate the allocation profile).
func BenchmarkKernelEdgeFreeLinkage(b *testing.B) {
	e := env.Maze2D(4, 0.2)
	l := Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1, 0.08, 0.06}}
	r := rng.New(13)
	s := NewLinkageSpace(e, l)
	var sc Scratch
	qa := s.SampleIn(s.Bounds, r, nil)
	qb := qa.Clone()
	for i := range qb {
		qb[i] += 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EdgeFree(e, qa, qb, &sc)
	}
}

// BenchmarkKernelLocalPlan measures the local planner at the space's
// resolution (interpolation + validity per step) through the scratch
// bisection path.
func BenchmarkKernelLocalPlan(b *testing.B) {
	e := env.MedCube()
	s := NewPointSpace(e)
	var c Counters
	var sc Scratch
	a := geom.V(0.1, 0.1, 0.1)
	q := geom.V(0.35, 0.3, 0.32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalPlanS(a, q, &sc, &c)
	}
}

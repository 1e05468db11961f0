package cspace

import (
	"fmt"
	"math"
	"testing"

	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

// posedPathFreeBatch is RigidBody.PathFreeBatch as it was before the
// swept-bound broad phase: every configuration posed, then the probe
// points of q_1..q_n-1, their spokes and every step swept.
// TestSweptBoundMatchesPosedSweep and FuzzSweptBoundMatchesPosedSweep
// hold the kernel to it.
func posedPathFreeBatch(r RigidBody, e *env.Environment, bt *Batch) (bool, int) {
	np := len(r.BodyPoints)
	if np == 0 || bt.n < 2 {
		return true, 0
	}
	bt.wa = r.bodyPointsInto(bt, bt.wa)
	free, tests := bt.pointsFree(e, bt.wa, np)
	if !free {
		return false, tests
	}
	m := (bt.n - 1) * (np - 1)
	bt.wb = sizeCols(bt.wb, 3, m)
	bt.wc = sizeCols(bt.wc, 3, m)
	for k := 0; k < 3; k++ {
		posed, centers, probes := bt.wa[k], bt.wb[k], bt.wc[k]
		j := 0
		for base := np; base < bt.n*np; base += np {
			c := posed[base]
			for _, v := range posed[base+1 : base+np] {
				centers[j], probes[j] = c, v
				j++
			}
		}
	}
	sfree, stests := e.SegmentsFreeSoA(bt.wb, bt.wc, m, &bt.esc)
	if tests += stests; !sfree {
		return false, tests
	}
	efree, etests := bt.stepsFree(e, bt.wa, np)
	return efree, tests + etests
}

// The slab cull's guard range M and gap g as the tests see them.
const (
	sweptRange = 1 << 20
	sweptGap   = 0x1p-28
)

// testReach is the body's reach ρ = max|v|·(1 + 2^-20) + g.
func testReach(body RigidBody) float64 {
	var m float64
	for _, v := range body.BodyPoints {
		m = max(m, math.Sqrt(v[0]*v[0]+v[1]*v[1]+v[2]*v[2]))
	}
	return m*(1+0x1p-20) + sweptGap
}

// ulps returns x moved by n units in the last place (n may be negative).
func ulps(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// boxLike is a box of a type env's kernels do not know, so every sweep
// over it takes the interface path.
type boxLike struct{ env.BoxObstacle }

func sweptBox(lo, hi geom.Vec) env.BoxObstacle {
	return env.BoxObstacle{Box: geom.AABB{Lo: lo, Hi: hi}}
}

// sweptScenes are the worlds the swept-bound tests plan in: med-cube, the
// free cube, three boxes (one of zero thickness), med-cube with a sphere,
// with a custom obstacle type or with a reversed box geom.CullFaces
// refuses, and a world whose bounds reach past ±M with boxes just inside
// it.
func sweptScenes() []*env.Environment {
	withObstacle := func(name string, o env.Obstacle) *env.Environment {
		e := env.MedCube()
		e.Name = name
		e.Obstacles = append(e.Obstacles, o)
		return e
	}
	const m = sweptRange
	return []*env.Environment{
		env.MedCube(),
		env.Free(),
		{Name: "boxes", Bounds: geom.AABB{Lo: geom.V(0, 0, 0), Hi: geom.V(1, 1, 1)}, Obstacles: []env.Obstacle{
			sweptBox(geom.V(0.4, 0.4, 0.4), geom.V(0.6, 0.6, 0.6)),
			sweptBox(geom.V(0.1, 0.1, 0.7), geom.V(0.3, 0.3, 0.7)),
			sweptBox(geom.V(0.75, 0.05, 0.1), geom.V(0.9, 0.2, 0.4)),
		}},
		withObstacle("sphere", env.SphereObstacle{Center: geom.V(0.15, 0.15, 0.85), Radius: 0.08}),
		withObstacle("custom", boxLike{sweptBox(geom.V(0.05, 0.8, 0.05), geom.V(0.2, 0.95, 0.2))}),
		withObstacle("reversed", sweptBox(geom.V(0.9, 0.1, 0.1), geom.V(0.8, 0.2, 0.2))),
		{Name: "far", Bounds: geom.AABB{Lo: geom.V(-3*m, -3*m, -3*m), Hi: geom.V(3*m, 3*m, 3*m)}, Obstacles: []env.Obstacle{
			sweptBox(geom.V(m-1, -1, -1), geom.V(m-0.25, 1, 1)),
			sweptBox(geom.V(-m+0.5, -m+0.5, -2), geom.V(-m+2, -m+2, 2)),
		}},
	}
}

// sweptBodies are the grow-prm box, a large box, an off-centre body, a
// zero-size one, a tiny one whose squared coordinates underflow, and a
// single probe (no spokes).
func sweptBodies() []RigidBody {
	return []RigidBody{
		NewRigidBox(0.03, 0.02, 0.01),
		NewRigidBox(0.4, 0.3, 0.2),
		{BodyPoints: []geom.Vec{geom.V(0.05, -0.02, 0.03), geom.V(0.09, 0.01, 0.03), geom.V(0.05, -0.02, -0.04)}},
		{BodyPoints: []geom.Vec{geom.V(0, 0, 0), geom.V(0, 0, 0), geom.V(0, 0, 0)}},
		{BodyPoints: []geom.Vec{geom.V(1e-170, -1e-170, 1e-170), geom.V(5e-324, 5e-324, -5e-324)}},
		{BodyPoints: []geom.Vec{geom.V(0.02, 0.01, 0)}},
	}
}

// landOn returns a translation t whose widened bound t + sgn·rho rounds
// to target, or the nearest a few ulps of search reach.
func landOn(target, rho, sgn float64) float64 {
	t := target - sgn*rho
	for i := 0; i < 8; i++ {
		switch got := t + sgn*rho; {
		case got < target:
			t = math.Nextafter(t, math.Inf(1))
		case got > target:
			t = math.Nextafter(t, math.Inf(-1))
		default:
			return t
		}
	}
	return t
}

// onFace moves the rows' translations on one axis so that the path's
// swept bound lands near a face: of an obstacle's bounds, from outside,
// where a broad phase could call the path clear; or of the world's
// bounds, from inside. The bound lands on the face or 1, 2 or 4 ulps
// either side, or a gap g either side; or the extreme translation sits on
// the face or ρ either side of it.
func onFace(r *rng.Stream, e *env.Environment, rho float64, rows []Config) {
	k := r.Intn(3)
	var face, sgn float64 // sgn +1: the path lies below face
	if len(e.Obstacles) > 0 && r.Intn(3) != 0 {
		b := e.Obstacles[r.Intn(len(e.Obstacles))].Bounds()
		face, sgn = b.Lo[k], 1
		if r.Intn(2) == 0 {
			face, sgn = b.Hi[k], -1
		}
	} else {
		face, sgn = e.Bounds.Hi[k], 1
		if r.Intn(2) == 0 {
			face, sgn = e.Bounds.Lo[k], -1
		}
	}
	var t float64
	switch r.Intn(3) {
	case 0:
		steps := []int{0, 1, 2, 4, -1, -2, -4}
		t = landOn(ulps(face, steps[r.Intn(len(steps))]), rho, sgn)
	case 1:
		t = landOn(face+[]float64{-sweptGap, sweptGap}[r.Intn(2)], rho, sgn)
	default:
		t = face + []float64{-rho, 0, rho}[r.Intn(3)]
	}
	ext := r.Intn(len(rows))
	for i, q := range rows {
		q[k] = t
		if i != ext && r.Intn(3) != 0 {
			q[k] = t - sgn*r.Range(0, 0.05)
		}
	}
}

// sweptPath fills bt with a path of 2..12 configurations drawn to sit
// where a swept bound could part from the posed sweep: translations
// walking or jumping across and past e's bounds, often pushed onto a face
// (onFace); angles in [−π, π] or huge; and sometimes NaN, ±Inf, ±M, an
// ulp inside ±M or ±MaxFloat64 in one column of a middle row. The rows go
// into block A as they are (AppendLerp would turn ±Inf into NaN).
func sweptPath(r *rng.Stream, e *env.Environment, body RigidBody, bt *Batch) {
	rows := make([]Config, 2+r.Intn(11))
	for i := range rows {
		rows[i] = make(Config, 6)
	}
	for k := 0; k < 3; k++ {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		span := hi - lo
		base := r.Range(lo-0.1*span, hi+0.1*span)
		jump := r.Intn(4) == 0
		for _, q := range rows {
			q[k] = base + r.Range(-0.03, 0.03)*span
			if jump {
				q[k] = r.Range(lo-0.1*span, hi+0.1*span)
			}
		}
	}
	huge := r.Intn(6) == 0
	for _, q := range rows {
		for k := 3; k < 6; k++ {
			q[k] = r.Range(-math.Pi, math.Pi)
			if huge {
				q[k] = []float64{1e300, -1e17, 0x1p60, 3*sweptRange + 0.5}[r.Intn(4)] * r.Range(0.5, 1)
			}
		}
	}
	if r.Intn(4) != 0 {
		onFace(r, e, testReach(body), rows)
	}
	if n := len(rows); n >= 3 && r.Intn(4) == 0 {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), sweptRange, -sweptRange,
			ulps(sweptRange, -1), ulps(-sweptRange, 1), math.MaxFloat64, -math.MaxFloat64}
		rows[1+r.Intn(n-2)][r.Intn(6)] = special[r.Intn(len(special))]
	}
	bt.Reset(6)
	for _, q := range rows {
		for k, v := range q {
			bt.a[k] = append(bt.a[k], v)
		}
		bt.n++
	}
}

// matchPosed requires the rigid body's path kernel to return the posed
// sweep's (free, tests) on bt, rejected paths included, and reports the
// verdict.
func matchPosed(t *testing.T, what string, e *env.Environment, body RigidBody, bt *Batch) bool {
	t.Helper()
	gf, gt := body.PathFreeBatch(e, bt)
	wf, wt := posedPathFreeBatch(body, e, bt)
	if gf != wf || gt != wt {
		t.Fatalf("%s: PathFreeBatch (%v, %d), posed sweep (%v, %d)\n body %v\n rows %v", what, gf, gt, wf, wt, body.BodyPoints, bt.a)
	}
	return wf
}

// TestSweptBoundMatchesPosedSweep holds the rigid body's path kernel to
// the posed sweep it had before the swept-bound broad phase, verdict and
// test count, on every scene and body of sweptScenes / sweptBodies and
// paths drawn by sweptPath.
func TestSweptBoundMatchesPosedSweep(t *testing.T) {
	r := rng.New(30)
	var bt Batch
	free, rejected := 0, 0
	for _, e := range sweptScenes() {
		for bi, body := range sweptBodies() {
			for trial := 0; trial < 1500; trial++ {
				sweptPath(r, e, body, &bt)
				if matchPosed(t, fmt.Sprintf("%s body %d trial %d", e.Name, bi, trial), e, body, &bt) {
					free++
				} else {
					rejected++
				}
			}
		}
	}
	if total := free + rejected; free < total/10 || rejected < total/10 {
		t.Fatalf("degenerate draw: %d free, %d rejected paths", free, rejected)
	}
}

// FuzzSweptBoundMatchesPosedSweep is TestSweptBoundMatchesPosedSweep with
// one coordinate of a middle row (the last row of a two-row path) chosen
// by the fuzzer, raw.
func FuzzSweptBoundMatchesPosedSweep(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), math.NaN())
	f.Add(uint64(2), uint8(8), uint8(4), math.Inf(1))
	f.Add(uint64(3), uint8(1), uint8(2), float64(sweptRange))
	f.Add(uint64(4), uint8(16), uint8(5), 1e300)
	f.Add(uint64(5), uint8(30), uint8(1), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed uint64, sel, col uint8, v float64) {
		scenes, bodies := sweptScenes(), sweptBodies()
		e := scenes[int(sel)%len(scenes)]
		body := bodies[int(sel)/len(scenes)%len(bodies)]
		var bt Batch
		sweptPath(rng.New(seed), e, body, &bt)
		bt.a[col%6][bt.n/2] = v
		matchPosed(t, "fuzz", e, body, &bt)
	})
}

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

// lerpedLocalPlanBatch is Space.LocalPlanBatch as it was before the
// endpoint bound: every row a + (i/steps)·(b−a) appended with AppendLerp,
// then one path-kernel call. For a rigid body that call is the posed
// sweep, so the endpoint bound and the path kernel's own tiers are held
// to posing together. TestEndpointBoundMatchesLerpedPlan and
// FuzzEndpointBoundMatchesLerpedPlan hold LocalPlanBatch to it.
func lerpedLocalPlanBatch(s *Space, a, b Config, bt *Batch, c *Counters) bool {
	if s.Steer != nil {
		return s.LocalPlan(a, b, c)
	}
	if c != nil {
		c.LPCalls++
	}
	steps := int(math.Ceil(s.Distance(a, b) / s.Resolution))
	if steps < 1 {
		steps = 1
	}
	bt.Reset(s.Dim())
	for i := 0; i <= steps; i++ {
		bt.AppendLerp(a, b, float64(i)/float64(steps))
	}
	var free bool
	var tests int
	if body, ok := s.Robot.(RigidBody); ok {
		free, tests = posedPathFreeBatch(body, s.Env, bt)
	} else {
		free, tests = s.Robot.PathFreeBatch(s.Env, bt)
	}
	if c != nil {
		c.LPSteps += int64(steps)
		c.CDCalls += int64(steps)
		c.CDObstacle += int64(tests)
	}
	return free
}

// posedConfigFree is RigidBody.ConfigFree as it was before the reach box:
// every probe posed and point-checked, then every spoke from the first
// probe swept. TestReachBoxMatchesPosedConfig and
// FuzzReachBoxMatchesPosedConfig hold ConfigFree to it.
func posedConfigFree(r RigidBody, e *env.Environment, q Config, sc *Scratch) (bool, int) {
	tr := r.pose(q)
	sc.worldA = growVecs(sc.worldA, len(r.BodyPoints), 3)
	world := sc.worldA
	tests := 0
	for i, bp := range r.BodyPoints {
		tr.ApplyInto(world[i], bp)
		free, n := e.CheckPoint(world[i])
		tests += n
		if !free {
			return false, tests
		}
	}
	for i := 1; i < len(world); i++ {
		free, n := e.SegmentFree(world[0], world[i])
		tests += n
		if !free {
			return false, tests
		}
	}
	return true, tests
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

// The special coordinates the reach-box tests plant: NaN, ±Inf, ±M, an
// ulp inside ±M and ±MaxFloat64.
func reachSpecials() []float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), sweptRange, -sweptRange,
		ulps(sweptRange, -1), ulps(-sweptRange, 1), math.MaxFloat64, -math.MaxFloat64}
}

// hugeAngle is an angle far outside [−π, π] whose sines still exist.
func hugeAngle(r *rng.Stream) float64 {
	return []float64{1e300, -1e17, 0x1p60, 3*sweptRange + 0.5}[r.Intn(4)] * r.Range(0.5, 1)
}

// lerpEnds draws the endpoints of a local plan where a bound from the
// endpoints could part from the lerped rows: translations close together
// or across and past e's bounds, often with the endpoints' widened box
// pushed onto a face (onFace); angles in [−π, π], huge, or so far apart
// that b − a overflows; and sometimes a NaN, ±Inf, ±M or ±MaxFloat64 in
// one coordinate of either endpoint.
func lerpEnds(r *rng.Stream, e *env.Environment, body RigidBody) (a, b Config) {
	a, b = make(Config, 6), make(Config, 6)
	for k := 0; k < 3; k++ {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		span := hi - lo
		a[k] = r.Range(lo-0.1*span, hi+0.1*span)
		b[k] = a[k] + r.Range(-0.05, 0.05)*span
		if r.Intn(4) == 0 {
			b[k] = r.Range(lo-0.1*span, hi+0.1*span)
		}
	}
	huge := r.Intn(6) == 0
	for k := 3; k < 6; k++ {
		a[k], b[k] = r.Range(-math.Pi, math.Pi), r.Range(-math.Pi, math.Pi)
		if huge {
			a[k], b[k] = hugeAngle(r), hugeAngle(r)
		}
	}
	if r.Intn(8) == 0 {
		k := 3 + r.Intn(3)
		a[k], b[k] = math.MaxFloat64*r.Range(0.5, 1), -math.MaxFloat64*r.Range(0.5, 1)
	}
	if r.Intn(4) != 0 {
		onFace(r, e, testReach(body), []Config{a, b})
	}
	if r.Intn(4) == 0 {
		end, special := []Config{a, b}[r.Intn(2)], reachSpecials()
		end[r.Intn(6)] = special[r.Intn(len(special))]
	}
	return a, b
}

// planSteps sets s.Resolution so that the edge a→b takes 1..16 steps. A
// non-finite distance gets Resolution +Inf, whose NaN step count is one
// step on every architecture.
func planSteps(r *rng.Stream, s *Space, a, b Config) {
	s.Resolution = math.Inf(1)
	if d := s.Distance(a, b); d > 0 && d <= math.MaxFloat64 {
		if res := d / r.Range(0.5, 16); res > 0 {
			s.Resolution = res
		}
	}
}

// matchLerped requires LocalPlanBatch to return the lerped plan's verdict
// and to charge its full Counters, rejected edges included, and reports
// the verdict.
func matchLerped(t *testing.T, what string, s *Space, a, b Config, bt *Batch) bool {
	t.Helper()
	var got, want Counters
	gf := s.LocalPlanBatch(a, b, bt, &got)
	wf := lerpedLocalPlanBatch(s, a, b, bt, &want)
	if gf != wf || got != want {
		t.Fatalf("%s: LocalPlanBatch %v %+v, lerped plan %v %+v\n body %v\n a %v\n b %v",
			what, gf, got, wf, want, s.Robot.(RigidBody).BodyPoints, a, b)
	}
	return wf
}

// overshootScenes put a face where the lerp's last row leaves its
// endpoints' range: for a = 0.6445397825093294, b = 0.08552050754191123,
// a + 1·(b − a) is one ulp below b. On axis 0 the widened row lands 0, 1,
// 2 or 4 ulps either side of a box's culled face or the lower bound.
func overshootScenes(rho float64) []*env.Environment {
	const a, b = 0.6445397825093294, 0.08552050754191123
	low := (a + (b - a)) - rho
	var out []*env.Environment
	for _, n := range []int{0, 1, 2, 4, -1, -2, -4} {
		f := ulps(low, n)
		out = append(out,
			&env.Environment{Name: "overshoot-bounds", Bounds: geom.AABB{Lo: geom.V(f, 0, 0), Hi: geom.V(1, 1, 1)}},
			&env.Environment{Name: "overshoot-box", Bounds: geom.AABB{Lo: geom.V(-1, 0, 0), Hi: geom.V(1, 1, 1)},
				Obstacles: []env.Obstacle{sweptBox(geom.V(-0.5, 0.2, 0.2), geom.V(f-sweptGap, 0.8, 0.8))}})
	}
	return out
}

// TestEndpointBoundMatchesLerpedPlan holds LocalPlanBatch to the plan it
// was before the endpoint bound — every row appended, then the posed
// sweep — verdict and full Counters, rejected edges included: on every
// scene and body of sweptScenes / sweptBodies with endpoints drawn by
// lerpEnds, on the overshoot example placed on faces for the tiny body,
// and on angles whose difference overflows only in the last row.
func TestEndpointBoundMatchesLerpedPlan(t *testing.T) {
	r := rng.New(33)
	var bt Batch
	free, rejected := 0, 0
	tally := func(ok bool) {
		if ok {
			free++
		} else {
			rejected++
		}
	}
	for _, e := range sweptScenes() {
		for bi, body := range sweptBodies() {
			s := NewRigidBodySpace(e, body)
			for trial := 0; trial < 1000; trial++ {
				a, b := lerpEnds(r, e, body)
				planSteps(r, s, a, b)
				tally(matchLerped(t, fmt.Sprintf("%s body %d trial %d", e.Name, bi, trial), s, a, b, &bt))
			}
		}
	}
	tiny := sweptBodies()[4]
	for _, e := range overshootScenes(testReach(tiny)) {
		s := NewRigidBodySpace(e, tiny)
		a := geom.V(0.6445397825093294, 0.5, 0.5, 0.1, 0.2, 0.3)
		b := geom.V(0.08552050754191123, 0.5, 0.5, 0.1, 0.2, 0.3)
		for _, res := range []float64{math.Inf(1), 0.2, 0.01} {
			s.Resolution = res
			tally(matchLerped(t, e.Name, s, a, b, &bt))
			tally(matchLerped(t, e.Name+" reversed", s, b, a, &bt))
		}
	}
	// b − a is finite but a + (b − a) rounds to +Inf: the last row's angle
	// overflows although both endpoints and their difference are finite.
	s := NewRigidBodySpace(env.MedCube(), sweptBodies()[0])
	for k := 3; k < 6; k++ {
		a := geom.V(0.1, 0.1, 0.1, 0, 0, 0)
		b := geom.V(0.12, 0.1, 0.1, 0, 0, 0)
		a[k], b[k] = 0x3p970, math.MaxFloat64
		if last := a[k] + (b[k] - a[k]); !math.IsInf(last, 1) {
			t.Fatalf("last row %v, want +Inf", last)
		}
		s.Resolution = 0.01
		tally(matchLerped(t, "overflowing last row", s, a, b, &bt))
	}
	if total := free + rejected; free < total/10 || rejected < total/10 {
		t.Fatalf("degenerate draw: %d free, %d rejected edges", free, rejected)
	}
}

// FuzzEndpointBoundMatchesLerpedPlan is TestEndpointBoundMatchesLerpedPlan
// with one coordinate of one endpoint chosen by the fuzzer, raw.
func FuzzEndpointBoundMatchesLerpedPlan(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), math.NaN())
	f.Add(uint64(2), uint8(8), uint8(10), math.Inf(1))
	f.Add(uint64(3), uint8(1), uint8(0), float64(sweptRange))
	f.Add(uint64(4), uint8(16), uint8(5), 1e300)
	f.Add(uint64(5), uint8(30), uint8(7), math.Copysign(0, -1))
	f.Add(uint64(6), uint8(2), uint8(9), -math.MaxFloat64)
	f.Fuzz(func(t *testing.T, seed uint64, sel, col uint8, v float64) {
		scenes, bodies := sweptScenes(), sweptBodies()
		e := scenes[int(sel)%len(scenes)]
		body := bodies[int(sel)/len(scenes)%len(bodies)]
		r := rng.New(seed)
		a, b := lerpEnds(r, e, body)
		[]Config{a, b}[col/6%2][col%6] = v
		s := NewRigidBodySpace(e, body)
		planSteps(r, s, a, b)
		var bt Batch
		matchLerped(t, "fuzz", s, a, b, &bt)
	})
}

// reachConfig draws one configuration where a reach box could part from
// the posed probes: a translation across and past e's bounds, often with
// its widened box pushed onto a face (onFace); angles in [−π, π] or huge;
// and sometimes a NaN, ±Inf, ±M or ±MaxFloat64 in one coordinate.
func reachConfig(r *rng.Stream, e *env.Environment, body RigidBody) Config {
	q := make(Config, 6)
	for k := 0; k < 3; k++ {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		span := hi - lo
		q[k] = r.Range(lo-0.1*span, hi+0.1*span)
	}
	huge := r.Intn(6) == 0
	for k := 3; k < 6; k++ {
		q[k] = r.Range(-math.Pi, math.Pi)
		if huge {
			q[k] = hugeAngle(r)
		}
	}
	if r.Intn(4) != 0 {
		onFace(r, e, testReach(body), []Config{q})
	}
	if r.Intn(5) == 0 {
		special := reachSpecials()
		q[r.Intn(6)] = special[r.Intn(len(special))]
	}
	return q
}

// matchPosedConfig requires ConfigFree to return the posed check's
// (free, tests) and reports the verdict.
func matchPosedConfig(t *testing.T, what string, e *env.Environment, body RigidBody, q Config, sc *Scratch) bool {
	t.Helper()
	gf, gt := body.ConfigFree(e, q, sc)
	wf, wt := posedConfigFree(body, e, q, sc)
	if gf != wf || gt != wt {
		t.Fatalf("%s: ConfigFree (%v, %d), posed check (%v, %d)\n body %v\n q %v", what, gf, gt, wf, wt, body.BodyPoints, q)
	}
	return wf
}

// TestReachBoxMatchesPosedConfig holds the rigid body's ConfigFree to the
// posed check it was before the reach box, verdict and test count, on
// every scene and body of sweptScenes / sweptBodies and configurations
// drawn by reachConfig.
func TestReachBoxMatchesPosedConfig(t *testing.T) {
	r := rng.New(34)
	var sc Scratch
	free, rejected := 0, 0
	for _, e := range sweptScenes() {
		for bi, body := range sweptBodies() {
			for trial := 0; trial < 1500; trial++ {
				q := reachConfig(r, e, body)
				if matchPosedConfig(t, fmt.Sprintf("%s body %d trial %d", e.Name, bi, trial), e, body, q, &sc) {
					free++
				} else {
					rejected++
				}
			}
		}
	}
	if total := free + rejected; free < total/10 || rejected < total/10 {
		t.Fatalf("degenerate draw: %d free, %d rejected configurations", free, rejected)
	}
}

// FuzzReachBoxMatchesPosedConfig is TestReachBoxMatchesPosedConfig with
// one coordinate chosen by the fuzzer, raw.
func FuzzReachBoxMatchesPosedConfig(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), math.NaN())
	f.Add(uint64(2), uint8(8), uint8(0), math.Inf(-1))
	f.Add(uint64(3), uint8(1), uint8(2), float64(sweptRange))
	f.Add(uint64(4), uint8(16), uint8(5), 1e300)
	f.Add(uint64(5), uint8(30), uint8(1), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed uint64, sel, col uint8, v float64) {
		scenes, bodies := sweptScenes(), sweptBodies()
		e := scenes[int(sel)%len(scenes)]
		body := bodies[int(sel)/len(scenes)%len(bodies)]
		q := reachConfig(rng.New(seed), e, body)
		q[col%6] = v
		var sc Scratch
		matchPosedConfig(t, "fuzz", e, body, q, &sc)
	})
}

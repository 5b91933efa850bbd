package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratOrient is the sign of (b−a) × (c−a) in exact rational arithmetic,
// the reference OrientSign is held to.
func ratOrient(a, b, c Point) int {
	r := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	l := new(big.Rat).Mul(new(big.Rat).Sub(r(b.X), r(a.X)), new(big.Rat).Sub(r(c.Y), r(a.Y)))
	rr := new(big.Rat).Mul(new(big.Rat).Sub(r(b.Y), r(a.Y)), new(big.Rat).Sub(r(c.X), r(a.X)))
	return l.Cmp(rr)
}

// naiveOrient is the float determinant's sign, with no error bound.
func naiveOrient(a, b, c Point) int {
	d := float64((b.X-a.X)*(c.Y-a.Y)) - float64((b.Y-a.Y)*(c.X-a.X))
	switch {
	case d > 0:
		return 1
	case d < 0:
		return -1
	}
	return 0
}

// orientCases are triples whose float determinant is wrong, zero by
// accident, or out of range: the table the tests and the fuzz corpus
// share.
var orientCases = []struct {
	name    string
	a, b, c Point
}{
	{"left turn", Pt(0, 0), Pt(1, 0), Pt(0, 1)},
	{"right turn", Pt(0, 0), Pt(0, 1), Pt(1, 0)},
	// The float determinant is −5.7e-14; the exact one is positive.
	{"float sign wrong", Pt(0x1.0000000000029p-1, 0x1.0000000000030p-1), Pt(12, 12), Pt(24, 24)},
	{"collinear dyadic", Pt(0.5, 0.5), Pt(12, 12), Pt(24, 24)},
	{"collinear decimal", Pt(0.1, 0.2), Pt(0.3, 0.6), Pt(0.2, 0.4)},
	{"coincident", Pt(3, 4), Pt(3, 4), Pt(5, 6)},
	{"all equal", Pt(-7.25, 1e-3), Pt(-7.25, 1e-3), Pt(-7.25, 1e-3)},
	{"grid line", Pt(-74.05, 40.6875), Pt(-73.85, 40.6875), Pt(-73.9, 40.6875)},
	{"one ulp above", Pt(-74.05, 40.6875), Pt(-73.85, 40.6875), Pt(-73.9, math.Nextafter(40.6875, 41))},
	{"one ulp below", Pt(-74.05, 40.6875), Pt(-73.85, 40.6875), Pt(-73.9, math.Nextafter(40.6875, 40))},
	{"huge", Pt(1e300, -1e300), Pt(-1e300, 1e300), Pt(1e299, -1e299)},
	{"huge nudged", Pt(1e300, -1e300), Pt(-1e300, 1e300), Pt(math.Nextafter(1e299, 1e300), -1e299)},
	{"max float", Pt(math.MaxFloat64, math.MaxFloat64), Pt(-math.MaxFloat64, -math.MaxFloat64), Pt(math.MaxFloat64, -math.MaxFloat64)},
	{"tiny", Pt(1e-300, 2e-300), Pt(3e-300, 6e-300), Pt(2e-300, 4e-300)},
	{"subnormal", Pt(5e-324, 0), Pt(0, 5e-324), Pt(5e-324, 5e-324)},
	{"subnormal collinear", Pt(0, 0), Pt(5e-324, 1e-323), Pt(1e-323, 2e-323)},
	{"mixed scales", Pt(0, 5e-324), Pt(0x1p900, 0x1p900), Pt(0x1p901, 0x1p901)},
	{"mixed scales collinear", Pt(0, 0), Pt(0x1p900, 0x1p-900), Pt(0x1p901, 0x1p-899)},
}

func TestOrientSignTable(t *testing.T) {
	wrong := 0
	for _, c := range orientCases {
		want := ratOrient(c.a, c.b, c.c)
		if got := OrientSign(c.a, c.b, c.c); got != want {
			t.Errorf("%s: OrientSign(%v, %v, %v) = %d, exact %d", c.name, c.a, c.b, c.c, got, want)
		}
		if naiveOrient(c.a, c.b, c.c) != want {
			wrong++
		}
	}
	// The table must hold cases the float sign alone gets wrong, or it
	// would not test the exact path.
	if wrong < 3 {
		t.Fatalf("the float sign is wrong on only %d cases", wrong)
	}
	t.Logf("the float sign is wrong on %d of %d cases", wrong, len(orientCases))
}

// orientGenerators produce triples of the shapes where float signs fail:
// random, snapped to a dyadic grid (as cover's differential cases snap to
// cell edges), snapped and moved ±1 ulp, exactly collinear, and scaled to
// the ends of the float64 range.
var orientGenerators = []struct {
	name string
	gen  func(*rand.Rand) (Point, Point, Point)
}{
	{"random", func(rng *rand.Rand) (Point, Point, Point) {
		p := func() Point { return Pt(200*rng.Float64()-100, 200*rng.Float64()-100) }
		return p(), p(), p()
	}},
	{"snapped", func(rng *rand.Rand) (Point, Point, Point) {
		p := lattice(rng)
		return p(), p(), p()
	}},
	{"nudged", func(rng *rand.Rand) (Point, Point, Point) {
		p := lattice(rng)
		q := func() Point { v := p(); return Pt(nudge(rng, v.X), nudge(rng, v.Y)) }
		return q(), q(), q()
	}},
	{"collinear", func(rng *rand.Rand) (Point, Point, Point) {
		a, b := Pt(snap(rng), snap(rng)), Pt(snap(rng), snap(rng))
		t := float64(rng.Intn(64)-16) / 32
		c := Pt(a.X+t*(b.X-a.X), a.Y+t*(b.Y-a.Y))
		if rng.Intn(2) == 0 {
			c = Pt(nudge(rng, c.X), nudge(rng, c.Y))
		}
		return a, b, c
	}},
	{"scaled", func(rng *rand.Rand) (Point, Point, Point) {
		s := math.Ldexp(1, rng.Intn(2000)-1000)
		p := func() Point { return Pt(nudge(rng, snap(rng))*s, nudge(rng, snap(rng))*s) }
		return p(), p(), p()
	}},
}

// snap returns a coordinate in [-100, 100) on a grid of 2⁻⁴ to 2⁻¹⁴.
func snap(rng *rand.Rand) float64 {
	step := math.Ldexp(1, -4-rng.Intn(11))
	return math.Floor((200*rng.Float64()-100)/step) * step
}

// lattice returns a generator of points a few grid steps from one snapped
// base, so that three of them are often collinear.
func lattice(rng *rand.Rand) func() Point {
	base, step := Pt(snap(rng), snap(rng)), math.Ldexp(1, -4-rng.Intn(11))
	return func() Point {
		return Pt(base.X+float64(rng.Intn(9)-4)*step, base.Y+float64(rng.Intn(9)-4)*step)
	}
}

// nudge moves x by −1, 0 or +1 ulp.
func nudge(rng *rand.Rand, x float64) float64 {
	return math.Nextafter(x, x+float64(rng.Intn(3)-1))
}

// TestOrientSignMatchesRational: on every generator, OrientSign is the
// rational sign, changes sign when b and c swap, and does not change when
// (a, b, c) rotates.
func TestOrientSignMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range orientGenerators {
		name := g.name
		zeros, wrong := 0, 0
		for i := 0; i < 20000; i++ {
			a, b, c := g.gen(rng)
			want := ratOrient(a, b, c)
			if got := OrientSign(a, b, c); got != want {
				t.Fatalf("%s: OrientSign(%v, %v, %v) = %d, exact %d", name, a, b, c, got, want)
			}
			if OrientSign(a, c, b) != -want || OrientSign(b, c, a) != want || OrientSign(c, a, b) != want {
				t.Fatalf("%s: OrientSign(%v, %v, %v) is not antisymmetric or not rotation-invariant", name, a, b, c)
			}
			if want == 0 {
				zeros++
			}
			if naiveOrient(a, b, c) != want {
				wrong++
			}
		}
		t.Logf("%s: %d collinear, float sign wrong on %d of 20000", name, zeros, wrong)
	}
}

// TestOrientSignExactPathAllocates nothing: every table case whose float
// determinant is inside the error bound takes the exact path.
func TestOrientSignExactPathAllocates(t *testing.T) {
	for _, c := range orientCases {
		if got := testing.AllocsPerRun(100, func() { OrientSign(c.a, c.b, c.c) }); got != 0 {
			t.Errorf("%s: %v allocations per OrientSign", c.name, got)
		}
	}
}

// FuzzOrientSign holds OrientSign to the rational sign, its antisymmetry
// in b and c, and its invariance under rotating (a, b, c), on any finite
// input.
func FuzzOrientSign(f *testing.F) {
	for _, c := range orientCases {
		f.Add(c.a.X, c.a.Y, c.b.X, c.b.Y, c.c.X, c.c.Y)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		for _, x := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				t.Skip("non-finite input")
			}
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		want := ratOrient(a, b, c)
		if got := OrientSign(a, b, c); got != want {
			t.Fatalf("OrientSign(%v, %v, %v) = %d, exact %d", a, b, c, got, want)
		}
		if got := OrientSign(a, c, b); got != -want {
			t.Fatalf("OrientSign(%v, %v, %v) = %d, want %d (b and c swapped)", a, c, b, got, -want)
		}
		if got := OrientSign(b, c, a); got != want {
			t.Fatalf("OrientSign(%v, %v, %v) = %d, want %d (rotated)", b, c, a, got, want)
		}
	})
}

// TestSegmentIntersectsRectMatchesSides: the separating-axis test and the
// rule it replaced (an endpoint inside, or a crossing of one of the four
// sides) are both exact, so they agree everywhere, on grid-snapped and
// nudged segments and rectangles where most signs are zero.
func TestSegmentIntersectsRectMatchesSides(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 {
		x := float64(rng.Intn(33)-16) / 8
		if rng.Intn(3) == 0 {
			x = nudge(rng, x)
		}
		return x
	}
	meets := 0
	for i := 0; i < 200000; i++ {
		a, b := Pt(coord(), coord()), Pt(coord(), coord())
		r := RectFromPoints(Pt(coord(), coord()), Pt(coord(), coord()))
		v := r.Vertices()
		want := r.ContainsPoint(a) || r.ContainsPoint(b)
		for k := 0; k < 4 && !want; k++ {
			want = SegmentsIntersect(a, b, v[k], v[(k+1)%4])
		}
		if got := SegmentIntersectsRect(a, b, r); got != want {
			t.Fatalf("SegmentIntersectsRect(%v, %v, %v) = %t, the four sides say %t", a, b, r, got, want)
		}
		if want {
			meets++
		}
	}
	t.Logf("%d of 200000 segments meet their rectangle", meets)
}

package geom

import (
	"math"
	"math/bits"
)

// Exact orientation. Every predicate in this package that decides a side —
// segment against segment, segment against rectangle, point against ring —
// takes its sign from OrientSign, so the predicates are exact for finite
// inputs and agree with each other: no cell can be called interior or
// disjoint by a rounding error. The method is Shewchuk's adaptive one
// ("Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
// Predicates", 1997) and S2's: a float determinant with a proven error
// bound, and exact arithmetic only for the signs inside that bound.

// orientErrBound is Shewchuk's ccwerrboundA, (3 + 16ε)ε with ε = 2⁻⁵³: the
// float determinant of two products of rounded differences is within
// orientErrBound·(|l| + |r|) of the exact one, l and r the two computed
// products.
const orientErrBound = (3 + 16*0x1p-53) * 0x1p-53

// orientUnderflow widens the bound by more than the absolute error gradual
// underflow can add to the two products and their difference (a few units
// of 2⁻¹⁰⁷⁵), which Shewchuk's relative bound leaves out.
const orientUnderflow = 0x1p-1070

// OrientSign returns the sign of the cross product (b−a) × (c−a): +1 when
// a→b→c turns left (counter-clockwise), −1 when it turns right, and 0
// when the three points are collinear, exactly for all finite inputs. It
// does not allocate. For non-finite inputs the result is unspecified.
func OrientSign(a, b, c Point) int {
	// The conversions stop the compiler fusing a product into the
	// subtraction, which the error bound does not model.
	l := float64((b.X - a.X) * (c.Y - a.Y))
	r := float64((b.Y - a.Y) * (c.X - a.X))
	det, bound := l-r, orientErrBound*(math.Abs(l)+math.Abs(r))+orientUnderflow
	switch {
	case det > bound:
		return 1
	case det < -bound:
		return -1
	}
	return orientWide(a, b, c)
}

// wideWords sizes orientWide's accumulator: a product of two float64
// magnitudes is an integer below 2¹⁰⁶ times 2^k with k in [−2148, 1942],
// so bit k+2148 of the accumulator has weight 2^k and the six-product sum,
// with a sign bit, fits in 4 288 bits.
const wideWords = 67

// orientWide is the exact sign of (b−a) × (c−a), expanded into six
// products of input coordinates,
//
//	a.X·b.Y − a.Y·b.X + b.X·c.Y − b.Y·c.X + c.X·a.Y − c.Y·a.X,
//
// summed in a fixed-point two's complement accumulator wide enough for the
// product of any two float64s: exact for every finite input, with no
// allocation.
func orientWide(a, b, c Point) int {
	var acc [wideWords]uint64
	for _, t := range [6][2]float64{
		{a.X, b.Y}, {-a.Y, b.X}, {b.X, c.Y}, {-b.Y, c.X}, {c.X, a.Y}, {-c.Y, a.X},
	} {
		addWide(&acc, t[0], t[1])
	}
	if acc[wideWords-1]>>63 != 0 {
		return -1
	}
	for _, w := range acc {
		if w != 0 {
			return 1
		}
	}
	return 0
}

// addWide adds the exact product x·y to acc.
func addWide(acc *[wideWords]uint64, x, y float64) {
	mx, ex := splitFloat(x)
	my, ey := splitFloat(y)
	if mx == 0 || my == 0 {
		return
	}
	hi, lo := bits.Mul64(mx, my)
	p := ex + ey + 2148
	k, s := p/64, uint(p%64)
	// Go defines a shift by 64 as 0, which is what s == 0 needs.
	t := [3]uint64{lo << s, hi<<s | lo>>(64-s), hi >> (64 - s)}
	neg := math.Signbit(x) != math.Signbit(y)
	var carry uint64
	for i := k; i < wideWords; i++ {
		var v uint64
		if i-k < len(t) {
			v = t[i-k]
		} else if carry == 0 {
			return
		}
		if neg {
			acc[i], carry = bits.Sub64(acc[i], v, carry)
		} else {
			acc[i], carry = bits.Add64(acc[i], v, carry)
		}
	}
}

// splitFloat returns m and e with |x| = m·2^e, m an integer below 2⁵³ and
// e ≥ −1074.
func splitFloat(x float64) (uint64, int) {
	b := math.Float64bits(x)
	m, e := b&(1<<52-1), int(b>>52&0x7ff)
	if e == 0 {
		return m, -1074
	}
	return m | 1<<52, e - 1075
}

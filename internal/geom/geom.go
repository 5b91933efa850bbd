// Package geom provides the planar geometry primitives that underpin the
// GeoBlocks spatial decomposition: points, axis-aligned rectangles, and
// simple polygons with optional holes, together with the containment and
// intersection predicates required by the region coverer and the baselines.
//
// All coordinates are plain float64 pairs. The package is deliberately
// projection-agnostic: callers decide whether X/Y mean longitude/latitude or
// metres. The GeoBlocks pipeline treats the configured domain rectangle as a
// flat torus-free plane, which matches the paper's use of a fixed spatial
// domain (NYC, the contiguous US, the Americas).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. For geographic data X is the longitude
// and Y the latitude, but nothing in this package depends on that reading.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed as
// vectors, i.e. the signed area of the parallelogram they span.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. A Rect is valid when Min.X <= Max.X and
// Min.Y <= Max.Y; the zero Rect is the valid degenerate rectangle at the
// origin. Rectangles are closed: they contain their boundary.
type Rect struct {
	Min, Max Point
}

// RectFromPoints returns the minimal bounding rectangle of the given points.
// It returns an empty Rect when called with no points.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// RectFromCenter returns the rectangle centred at c with the given half
// extents.
func RectFromCenter(c Point, halfW, halfH float64) Rect {
	return Rect{
		Min: Point{c.X - halfW, c.Y - halfH},
		Max: Point{c.X + halfW, c.Y + halfH},
	}
}

// IsValid reports whether r has non-negative extent in both dimensions.
func (r Rect) IsValid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r, zero for invalid rectangles.
func (r Rect) Area() float64 {
	if !r.IsValid() {
		return 0
	}
	return r.Width() * r.Height()
}

// Diagonal returns the length of r's diagonal. This is the spatial error
// bound that a covering at this cell size guarantees (paper Sec. 3.2).
func (r Rect) Diagonal() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Vertices returns the four corners of r in counter-clockwise order starting
// at Min.
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether r fully contains o.
func (r Rect) ContainsRect(o Rect) bool {
	return o.Min.X >= r.Min.X && o.Max.X <= r.Max.X &&
		o.Min.Y >= r.Min.Y && o.Max.Y <= r.Max.Y
}

// Intersects reports whether r and o share at least one point (boundaries
// count).
func (r Rect) Intersects(o Rect) bool {
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Intersection returns the overlap of r and o. The result is invalid
// (negative extent) when the rectangles do not intersect; callers should
// check IsValid.
func (r Rect) Intersection(o Rect) Rect {
	return Rect{
		Min: Point{math.Max(r.Min.X, o.Min.X), math.Max(r.Min.Y, o.Min.Y)},
		Max: Point{math.Min(r.Max.X, o.Max.X), math.Min(r.Max.Y, o.Max.Y)},
	}
}

// Union returns the minimal rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// ExtendPoint returns r grown to include p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Expanded returns r grown by margin on every side. Negative margins shrink
// the rectangle and may render it invalid.
func (r Rect) Expanded(margin float64) Rect {
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// Polygon returns r as a four-vertex polygon.
func (r Rect) Polygon() *Polygon {
	v := r.Vertices()
	return NewPolygon(v[:])
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// onSegment reports whether point p lies on the closed segment ab, assuming
// p is already known to be collinear with a and b.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// SegmentsIntersect reports whether the closed segments ab and cd share at
// least one point, exactly. Touching endpoints count as intersections.
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := OrientSign(c, d, a)
	d2 := OrientSign(c, d, b)
	d3 := OrientSign(a, b, c)
	d4 := OrientSign(a, b, d)

	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	return d1 == 0 && onSegment(c, d, a) || d2 == 0 && onSegment(c, d, b) ||
		d3 == 0 && onSegment(a, b, c) || d4 == 0 && onSegment(a, b, d)
}

// SegmentIntersectsRect reports whether the closed segment ab meets the
// closed rectangle r, exactly. It is the separating-axis test for two
// convex sets: they are disjoint iff their bounding boxes are, or the four
// corners of r lie strictly on one side of the line through a and b. An
// endpoint inside r settles it first: at coarse cells, where many
// vertices fall inside one cell, that is most edges.
//
// The corners need two signs, not four. The determinant (b−a) × (p−a) is
// linear in p, so over r it is largest at the corner hi and smallest at
// the corner lo that the signs of b−a pick (exact: a float difference is
// zero or keeps its sign). All four corners are strictly on one side iff
// it is negative at hi or positive at lo.
func SegmentIntersectsRect(a, b Point, r Rect) bool {
	if a.X < r.Min.X && b.X < r.Min.X || a.X > r.Max.X && b.X > r.Max.X ||
		a.Y < r.Min.Y && b.Y < r.Min.Y || a.Y > r.Max.Y && b.Y > r.Max.Y {
		return false
	}
	if r.ContainsPoint(a) || r.ContainsPoint(b) {
		return true
	}
	hi, lo := Point{r.Min.X, r.Max.Y}, Point{r.Max.X, r.Min.Y}
	if b.X < a.X {
		hi.Y, lo.Y = lo.Y, hi.Y
	}
	if b.Y < a.Y {
		hi.X, lo.X = lo.X, hi.X
	}
	return OrientSign(a, b, hi) >= 0 && OrientSign(a, b, lo) <= 0
}

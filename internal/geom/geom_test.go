package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 3)}
	if !r.IsValid() {
		t.Fatal("rect should be valid")
	}
	if r.Width() != 4 || r.Height() != 3 {
		t.Fatalf("extent = %gx%g", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Fatalf("area = %g", r.Area())
	}
	if r.Diagonal() != 5 {
		t.Fatalf("diagonal = %g", r.Diagonal())
	}
	if r.Center() != Pt(2, 1.5) {
		t.Fatalf("center = %v", r.Center())
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},   // corner (closed rect)
		{Pt(10, 10), true}, // corner
		{Pt(10, 5), true},  // edge
		{Pt(-0.001, 5), false},
		{Pt(5, 10.001), false},
	}
	for _, c := range cases {
		if got := r.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %t, want %t", c.p, got, c.want)
		}
	}

	if !r.Intersects(Rect{Min: Pt(10, 10), Max: Pt(20, 20)}) {
		t.Error("touching rects must intersect (closed semantics)")
	}
	if r.Intersects(Rect{Min: Pt(10.5, 0), Max: Pt(20, 20)}) {
		t.Error("disjoint rects must not intersect")
	}
	if !r.ContainsRect(Rect{Min: Pt(1, 1), Max: Pt(9, 9)}) {
		t.Error("inner rect must be contained")
	}
	if r.ContainsRect(Rect{Min: Pt(1, 1), Max: Pt(11, 9)}) {
		t.Error("overlapping rect must not be contained")
	}
}

func TestRectIntersectionUnion(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(4, 4)}
	b := Rect{Min: Pt(2, 2), Max: Pt(6, 6)}
	got := a.Intersection(b)
	if got != (Rect{Min: Pt(2, 2), Max: Pt(4, 4)}) {
		t.Fatalf("intersection = %v", got)
	}
	if u := a.Union(b); u != (Rect{Min: Pt(0, 0), Max: Pt(6, 6)}) {
		t.Fatalf("union = %v", u)
	}
	c := Rect{Min: Pt(5, 5), Max: Pt(7, 7)}
	if a.Intersection(c).IsValid() {
		t.Fatal("disjoint intersection must be invalid")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a, b, c, d Point
		want       bool
	}{
		{Pt(0, 0), Pt(4, 4), Pt(0, 4), Pt(4, 0), true},  // X crossing
		{Pt(0, 0), Pt(4, 0), Pt(2, 0), Pt(6, 0), true},  // collinear overlap
		{Pt(0, 0), Pt(4, 0), Pt(4, 0), Pt(8, 0), true},  // touch at endpoint
		{Pt(0, 0), Pt(4, 0), Pt(5, 0), Pt(8, 0), false}, // collinear disjoint
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3), false}, // collinear disjoint diag
		{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), false}, // parallel
		{Pt(0, 0), Pt(2, 2), Pt(1, 1), Pt(3, 0), true},  // T junction
		{Pt(0, 0), Pt(0, 4), Pt(-1, 2), Pt(1, 2), true}, // vertical crossed
		{Pt(0, 0), Pt(0, 4), Pt(0.1, 2), Pt(1, 2), false},
	}
	for _, c := range cases {
		if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("SegmentsIntersect(%v,%v,%v,%v) = %t, want %t", c.a, c.b, c.c, c.d, got, c.want)
		}
		// Symmetry.
		if got := SegmentsIntersect(c.c, c.d, c.a, c.b); got != c.want {
			t.Errorf("SegmentsIntersect symmetric (%v,%v,%v,%v) = %t, want %t", c.c, c.d, c.a, c.b, got, c.want)
		}
	}
}

func TestPolygonNormalization(t *testing.T) {
	// Clockwise input must be reversed to CCW.
	cw := []Point{Pt(0, 0), Pt(0, 4), Pt(4, 4), Pt(4, 0)}
	p := NewPolygon(cw)
	if signedArea(p.Outer()) <= 0 {
		t.Fatal("outer ring must be CCW after normalisation")
	}
	if p.Area() != 16 {
		t.Fatalf("area = %g, want 16", p.Area())
	}
	// Closing vertex is stripped.
	closed := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), Pt(0, 0)}
	if got := len(NewPolygon(closed).Outer()); got != 4 {
		t.Fatalf("closed ring vertex count = %d, want 4", got)
	}
}

func TestTryPolygonRejectsDegenerate(t *testing.T) {
	if _, err := TryPolygon([]Point{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Fatal("2-vertex ring accepted")
	}
	if _, err := TryPolygon([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2)}); err == nil {
		t.Fatal("collinear ring accepted")
	}
	if _, err := TryPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(0, 1)}); err != nil {
		t.Fatalf("valid triangle rejected: %v", err)
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	// Concave "L" polygon.
	l := NewPolygon([]Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4),
	})
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(3, 1), true},
		{Pt(1, 3), true},
		{Pt(3, 3), false}, // in the notch
		{Pt(2, 2), true},  // reflex corner is on boundary
		{Pt(0, 0), true},  // corner
		{Pt(2, 0), true},  // on edge
		{Pt(5, 1), false},
		{Pt(-1, -1), false},
	}
	for _, c := range cases {
		if got := l.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %t, want %t", c.p, got, c.want)
		}
	}
}

func TestPolygonWithHole(t *testing.T) {
	p := NewPolygon([]Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)})
	if err := p.AddHole([]Point{Pt(4, 4), Pt(6, 4), Pt(6, 6), Pt(4, 6)}); err != nil {
		t.Fatal(err)
	}
	if p.Area() != 100-4 {
		t.Fatalf("area with hole = %g, want 96", p.Area())
	}
	if p.ContainsPoint(Pt(5, 5)) {
		t.Error("point in hole must not be contained")
	}
	if !p.ContainsPoint(Pt(2, 2)) {
		t.Error("point outside hole must be contained")
	}
	if !p.ContainsPoint(Pt(4, 5)) {
		t.Error("point on hole boundary counts as contained (boundary)")
	}
	if p.containsRect(Rect{Min: Pt(3, 3), Max: Pt(7, 7)}) {
		t.Error("rect overlapping hole must not be contained")
	}
	if !p.containsRect(Rect{Min: Pt(1, 1), Max: Pt(3, 3)}) {
		t.Error("rect clear of hole must be contained")
	}
	if p.containsRect(Rect{Min: Pt(4.5, 4.5), Max: Pt(5.5, 5.5)}) {
		t.Error("rect fully inside hole must not be contained")
	}
}

func TestPolygonContainsRect(t *testing.T) {
	tri := NewPolygon([]Point{Pt(0, 0), Pt(8, 0), Pt(4, 8)})
	if !tri.containsRect(Rect{Min: Pt(3, 1), Max: Pt(5, 2)}) {
		t.Error("inner rect must be contained")
	}
	if tri.containsRect(Rect{Min: Pt(0, 0), Max: Pt(8, 8)}) {
		t.Error("bbox of triangle must not be contained")
	}
	if tri.containsRect(Rect{Min: Pt(-1, 1), Max: Pt(2, 2)}) {
		t.Error("rect crossing the boundary must not be contained")
	}
}

func TestCentroid(t *testing.T) {
	sq := NewPolygon([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if c := sq.Centroid(); math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Fatalf("centroid = %v, want (1,1)", c)
	}
}

func TestInteriorRect(t *testing.T) {
	// For a square the interior rect should recover nearly the full square.
	sq := NewPolygon([]Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)})
	r := sq.InteriorRect(32)
	if !r.IsValid() {
		t.Fatal("interior rect of square invalid")
	}
	if r.Area() < 0.8*100 {
		t.Fatalf("interior rect area = %g, want >= 80", r.Area())
	}
	if !sq.containsRect(r) {
		t.Fatal("interior rect must be contained in the polygon")
	}

	// For a triangle the interior rect is a strict subset.
	tri := NewPolygon([]Point{Pt(0, 0), Pt(8, 0), Pt(4, 8)})
	rt := tri.InteriorRect(32)
	if !rt.IsValid() {
		t.Fatal("interior rect of triangle invalid")
	}
	if !tri.containsRect(rt) {
		t.Fatal("triangle interior rect must be contained")
	}
	// Max inscribed axis-aligned rect in this triangle has area 16 (w=4,h=4
	// is optimal at area 16); grid approximation should reach >= 60% of it.
	if rt.Area() < 9 {
		t.Fatalf("triangle interior rect area = %g, too small", rt.Area())
	}
}

func TestRegularPolygon(t *testing.T) {
	c := RegularPolygon(Pt(5, 5), 2, 32)
	if got := len(c.Outer()); got != 32 {
		t.Fatalf("vertices = %d", got)
	}
	// Area approaches pi*r^2.
	if a := c.Area(); math.Abs(a-math.Pi*4) > 0.2 {
		t.Fatalf("area = %g, want ~%g", a, math.Pi*4)
	}
	if !c.ContainsPoint(Pt(5, 5)) {
		t.Fatal("centre must be contained")
	}
}

// Property: point containment is invariant under translation of both the
// polygon and the point.
func TestQuickTranslationInvariance(t *testing.T) {
	base := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	poly := NewPolygon(base)
	f := func(px, py int16, dx, dy int8) bool {
		p := Pt(float64(px)/4096*8, float64(py)/4096*8)
		d := Pt(float64(dx), float64(dy))
		moved := make([]Point, len(base))
		for i, v := range base {
			moved[i] = v.Add(d)
		}
		mp := NewPolygon(moved)
		return poly.ContainsPoint(p) == mp.ContainsPoint(p.Add(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRectFromPoints(t *testing.T) {
	if r := RectFromPoints(); r.IsValid() && r.Area() != 0 {
		t.Fatal("empty point set must give degenerate rect")
	}
	r := RectFromPoints(Pt(3, 1), Pt(-1, 5), Pt(2, 2))
	want := Rect{Min: Pt(-1, 1), Max: Pt(3, 5)}
	if r != want {
		t.Fatalf("bbox = %v, want %v", r, want)
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 4)}
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(1, 1), Pt(2, 2), true},  // fully inside
		{Pt(-2, 2), Pt(6, 2), true}, // crossing through
		{Pt(-2, -2), Pt(-1, 5), false},
		{Pt(0, 5), Pt(5, 0), true},  // cuts corner region
		{Pt(4, 4), Pt(8, 8), true},  // touches corner
		{Pt(5, 0), Pt(5, 4), false}, // parallel outside
	}
	for _, c := range cases {
		if got := SegmentIntersectsRect(c.a, c.b, r); got != c.want {
			t.Errorf("SegmentIntersectsRect(%v,%v) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

// ringsMeet reports whether an edge of p, outer or hole, meets r.
func ringsMeet(p *Polygon, r Rect) bool {
	for _, ring := range append([][]Point{p.outer}, p.holes...) {
		if ringIntersectsRect(ring, r) {
			return true
		}
	}
	return false
}

// relate is the covering's rule (internal/cover) on this package: 2 if
// containsRect, else 1 if a ring edge meets r, else 0 (disjoint).
func relate(p *Polygon, r Rect) int {
	if p.containsRect(r) {
		return 2
	} else if ringsMeet(p, r) {
		return 1
	}
	return 0
}

func rc(x0, y0, x1, y1 float64) Rect { return Rect{Min: Pt(x0, y0), Max: Pt(x1, y1)} }

// The relation on hand-picked rectangles; touching the ring is never
// interior, and a corner touch is not disjoint.
func TestClassifyRectCases(t *testing.T) {
	sq := NewPolygon([]Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)})
	for i, r := range []Rect{rc(2, 2, 4, 4), rc(0, 0, 10, 10), rc(-2, -2, 12, 12), rc(8, 8, 12, 12), rc(11, 11, 12, 12), rc(10, 10, 12, 12)} {
		if got, want := relate(sq, r), []int{2, 1, 1, 1, 0, 1}[i]; got != want {
			t.Errorf("case %d: relate(%v) = %d, want %d", i, r, got, want)
		}
	}
}

// A triangle meets a rectangle inside it, engulfing it, across an edge and
// at a vertex touch, not one beside the apex or outside.
func TestPolygonIntersectsRect(t *testing.T) {
	tri := NewPolygon([]Point{Pt(0, 0), Pt(8, 0), Pt(4, 8)})
	for i, r := range []Rect{rc(3, 1, 5, 2), rc(-2, -2, 10, 10), rc(-2, 3, 2, 5), rc(8, 0, 9, 1), rc(0, 7, 1, 8), rc(9, 9, 12, 12), rc(-4, -4, -1, -1)} {
		if got, want := relate(tri, r) != 0, i < 4; got != want {
			t.Errorf("intersects(%v) = %t, want %t", r, got, want)
		}
	}
}

// Property: every sampled point of an interior rectangle is contained, and
// a rectangle holding a contained sample is not disjoint.
func TestQuickRectPolygonPredicatesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	poly := NewPolygon([]Point{Pt(0, 0), Pt(10, 1), Pt(12, 7), Pt(6, 11), Pt(-1, 6)})
	f := func(x0, y0, w, h uint16) bool {
		x, y := float64(x0)/4096-2, float64(y0)/4096-2
		r := rc(x, y, x+float64(w)/2048, y+float64(h)/2048)
		rel := relate(poly, r)
		for k := 0; k < 16; k++ {
			in := poly.ContainsPoint(Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height()))
			if rel == 2 && !in || rel == 0 && in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rule's one-point shortcut (r.Min decides once no edge
// meets r) matches the corner-wise predicates on convex, concave and holed
// polygons, slivers to engulfing: interior iff four corners are contained
// and no edge meets r; disjoint iff no corner is, no outer vertex is in r
// and no edge meets r.
func TestQuickClassifyRectMatchesPredicates(t *testing.T) {
	holed := NewPolygon([]Point{Pt(0, 0), Pt(12, 0), Pt(12, 12), Pt(0, 12)})
	if err := holed.AddHole([]Point{Pt(4, 4), Pt(8, 4), Pt(8, 8), Pt(4, 8)}); err != nil {
		t.Fatal(err)
	}
	polys := []*Polygon{holed, NewPolygon([]Point{Pt(0, 0), Pt(10, 1), Pt(12, 7), Pt(6, 11), Pt(-1, 6)}),
		NewPolygon([]Point{Pt(0, 0), Pt(12, 0), Pt(12, 10), Pt(6, 3), Pt(0, 10)})}
	f := func(x0, y0, w, h uint16, which uint8) bool {
		poly, x, y := polys[int(which)%len(polys)], float64(x0)/4096-2, float64(y0)/4096-2
		r := rc(x, y, x+float64(w)/1024, y+float64(h)/1024)
		corners, vertex, meets, want := 0, false, ringsMeet(poly, r), 1
		for _, c := range r.Vertices() {
			if poly.ContainsPoint(c) {
				corners++
			}
		}
		for _, v := range poly.outer {
			vertex = vertex || r.ContainsPoint(v)
		}
		if corners == 4 && !meets {
			want = 2
		} else if corners == 0 && !vertex && !meets {
			want = 0
		}
		return relate(poly, r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

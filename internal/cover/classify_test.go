package cover

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// The coverer classifies a polygon cell by the two-step rule of
// geom.Polygon.ClassifyRect over edge lists inherited down the walk. The
// tests below check it against the body it replaced — four corner ray
// casts, then edge walks — kept here as the oracle, on the shapes where
// closed-rectangle predicates are fragile: vertices exactly on grid lines,
// and vertices one ulp off them.

// oracleClassify is the pre-edge-list geom.Polygon.ClassifyRect.
func oracleClassify(p *geom.Polygon, r geom.Rect) geom.RectRelation {
	if !p.Bound().Intersects(r) {
		return geom.RectDisjoint
	}
	anyIn, anyOut := false, false
	for _, c := range r.Vertices() {
		if p.ContainsPoint(c) {
			anyIn = true
		} else {
			anyOut = true
		}
		if anyIn && anyOut {
			return geom.RectIntersects
		}
	}
	if anyIn {
		if p.Bound().ContainsRect(r) && !oracleRingMeets(p.Outer(), r) {
			ok := true
			for _, h := range p.Holes() {
				if oracleRingMeets(h, r) || r.ContainsPoint(h[0]) {
					ok = false
					break
				}
			}
			if ok {
				return geom.RectContains
			}
		}
		return geom.RectIntersects
	}
	for _, v := range p.Outer() {
		if r.ContainsPoint(v) {
			return geom.RectIntersects
		}
	}
	if oracleRingMeets(p.Outer(), r) {
		return geom.RectIntersects
	}
	for _, h := range p.Holes() {
		if oracleRingMeets(h, r) {
			return geom.RectIntersects
		}
	}
	return geom.RectDisjoint
}

func oracleRingMeets(ring []geom.Point, r geom.Rect) bool {
	a := ring[len(ring)-1]
	for _, b := range ring {
		if geom.SegmentIntersectsRect(a, b, r) {
			return true
		}
		a = b
	}
	return false
}

// oracleRegion covers a polygon through oracleClassify.
type oracleRegion struct{ p *geom.Polygon }

func (o oracleRegion) Bound() geom.Rect { return o.p.Bound() }
func (o oracleRegion) ClassifyRect(r geom.Rect) geom.RectRelation {
	return oracleClassify(o.p, r)
}

// fullRingRegion covers a polygon through geom.Polygon.ClassifyRect, so
// every cell tests the whole ring instead of an inherited edge list.
type fullRingRegion struct{ p *geom.Polygon }

func (f fullRingRegion) Bound() geom.Rect { return f.p.Bound() }
func (f fullRingRegion) ClassifyRect(r geom.Rect) geom.RectRelation {
	return f.p.ClassifyRect(r)
}

// exactClassify is the two-step rule in exact rational arithmetic: some
// ring edge meets the closed rect ? RectIntersects : r.Min inside (outer
// ring and no hole, even-odd) ? RectContains : RectDisjoint.
func exactClassify(p *geom.Polygon, r geom.Rect) geom.RectRelation {
	rings := append([][]geom.Point{p.Outer()}, p.Holes()...)
	for _, ring := range rings {
		a := ring[len(ring)-1]
		for _, b := range ring {
			if exactSegmentMeetsRect(a, b, r) {
				return geom.RectIntersects
			}
			a = b
		}
	}
	if !exactRingContains(p.Outer(), r.Min) {
		return geom.RectDisjoint
	}
	for _, h := range p.Holes() {
		if exactRingContains(h, r.Min) {
			return geom.RectDisjoint
		}
	}
	return geom.RectContains
}

func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// exactOrient is the sign of (b−a) × (c−a).
func exactOrient(a, b, c geom.Point) int {
	l := new(big.Rat).Mul(new(big.Rat).Sub(rat(b.X), rat(a.X)), new(big.Rat).Sub(rat(c.Y), rat(a.Y)))
	r := new(big.Rat).Mul(new(big.Rat).Sub(rat(b.Y), rat(a.Y)), new(big.Rat).Sub(rat(c.X), rat(a.X)))
	return l.Cmp(r)
}

func inBox(a, b, p geom.Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

func exactSegmentsMeet(a, b, c, d geom.Point) bool {
	d1, d2 := exactOrient(c, d, a), exactOrient(c, d, b)
	d3, d4 := exactOrient(a, b, c), exactOrient(a, b, d)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	return d1 == 0 && inBox(c, d, a) || d2 == 0 && inBox(c, d, b) ||
		d3 == 0 && inBox(a, b, c) || d4 == 0 && inBox(a, b, d)
}

func exactSegmentMeetsRect(a, b geom.Point, r geom.Rect) bool {
	if r.ContainsPoint(a) || r.ContainsPoint(b) {
		return true
	}
	v := r.Vertices()
	for i := range v {
		if exactSegmentsMeet(a, b, v[i], v[(i+1)%4]) {
			return true
		}
	}
	return false
}

// exactRingContains is the even-odd ray cast with the crossing abscissa
// computed exactly; pt must not lie on the ring.
func exactRingContains(ring []geom.Point, pt geom.Point) bool {
	in := false
	a := ring[len(ring)-1]
	for _, b := range ring {
		if (a.Y > pt.Y) != (b.Y > pt.Y) {
			// xCross = a.X + (pt.Y−a.Y)/(b.Y−a.Y)·(b.X−a.X)
			x := new(big.Rat).Sub(rat(pt.Y), rat(a.Y))
			x.Mul(x, new(big.Rat).Sub(rat(b.X), rat(a.X)))
			x.Quo(x, new(big.Rat).Sub(rat(b.Y), rat(a.Y)))
			x.Add(x, rat(a.X))
			if rat(pt.X).Cmp(x) < 0 {
				in = !in
			}
		}
		a = b
	}
	return in
}

// diffCase is one differential-test polygon and the level it is
// classified at.
type diffCase struct {
	p     *geom.Polygon
	level int
}

// diffCases returns n star polygons with 12–24 vertices, 3–12 level-cells
// in radius at a level in 8–14. Every third has its vertices snapped
// exactly onto the grid lines of a level in [level, 14] (as CellRect
// computes them); every fifth has a star-shaped hole. With nudge, every
// polygon is snapped and each coordinate then moved −1, 0 or +1 ulp.
func diffCases(dom cellid.Domain, seed int64, n int, nudge bool) []diffCase {
	rng := rand.New(rand.NewSource(seed))
	ring := func(c geom.Point, rmin, rmax float64, nv int, snap int) []geom.Point {
		pts := make([]geom.Point, nv)
		for j := range pts {
			a := 2 * math.Pi * float64(j) / float64(nv)
			rj := rmin + (rmax-rmin)*rng.Float64()
			pts[j] = geom.Pt(c.X+rj*math.Cos(a), c.Y+rj*math.Sin(a))
			if snap < 0 {
				continue
			}
			li, lj := dom.LeafIJ(pts[j])
			shift := uint(cellid.MaxLevel - snap)
			pts[j] = dom.CellRectAt(li>>shift, lj>>shift, snap).Min
			if nudge {
				pts[j].X = math.Nextafter(pts[j].X, pts[j].X+float64(rng.Intn(3)-1))
				pts[j].Y = math.Nextafter(pts[j].Y, pts[j].Y+float64(rng.Intn(3)-1))
			}
		}
		return pts
	}
	cases := make([]diffCase, 0, n)
	for i := 0; len(cases) < n; i++ {
		level := 8 + rng.Intn(7)
		r := (3 + 9*rng.Float64()) * dom.Bound().Width() / float64(uint(1)<<level)
		c := geom.Pt(10+80*rng.Float64(), 10+80*rng.Float64())
		snap := -1
		if i%3 == 0 || nudge {
			snap = level + rng.Intn(15-level)
		}
		p, err := geom.TryPolygon(ring(c, 0.55*r, r, 12+rng.Intn(13), snap))
		if err != nil {
			continue // snapping collapsed the ring
		}
		if i%5 == 0 {
			if p.AddHole(ring(c, 0.15*r, 0.3*r, 6+rng.Intn(5), snap)) != nil {
				continue
			}
		}
		cases = append(cases, diffCase{p, level})
	}
	return cases
}

// forEachCell calls f with the rectangle of every level-cell under the
// polygon's bounding box, widened by one cell each way. diffCases keeps
// polygons clear of the domain edge, so the widened range never wraps.
func forEachCell(dom cellid.Domain, dc diffCase, f func(r geom.Rect)) {
	bb := dc.p.Bound()
	shift := uint(cellid.MaxLevel - dc.level)
	i0, j0 := dom.LeafIJ(bb.Min)
	i1, j1 := dom.LeafIJ(bb.Max)
	for i := i0>>shift - 1; i <= i1>>shift+1; i++ {
		for j := j0>>shift - 1; j <= j1>>shift+1; j++ {
			f(dom.CellRectAt(i, j, dc.level))
		}
	}
}

// TestClassifyMatchesOracle: on random-float and grid-snapped polygons,
// over more than a million cells, the two-step rule equals the old
// classification everywhere, and Cover equals a Cover classified by the
// old body at three budgets.
func TestClassifyMatchesOracle(t *testing.T) {
	dom := testDomain()
	cases := diffCases(dom, 1, 4000, false)
	cells := 0
	for ci, dc := range cases {
		forEachCell(dom, dc, func(r geom.Rect) {
			cells++
			if got, want := dc.p.ClassifyRect(r), oracleClassify(dc.p, r); got != want {
				t.Fatalf("case %d (%v, level %d): ClassifyRect(%v) = %d, oracle %d", ci, dc.p, dc.level, r, got, want)
			}
		})
	}
	if cells < 1_000_000 {
		t.Fatalf("classified %d cells, want at least 1M", cells)
	}
	t.Logf("%d cells, no disagreement with the old body", cells)
	for _, maxCells := range []int{8, 100, 2048} {
		for _, dc := range cases[:120] {
			c := MustCoverer(dom, Options{MaxLevel: dc.level, MaxCells: maxCells})
			assertSameCovering(t, "oracle", c.Cover(dc.p), c.Cover(oracleRegion{dc.p}))
		}
	}
}

// TestClassifyNudgedVertices: with vertices one ulp off grid lines, the
// float predicates can disagree. Inherited edge lists must still give the
// covering a whole-ring classification gives (in Cover and in
// CoverShared), and wherever the two-step rule and
// the old body disagree, exact arithmetic must side with the two-step
// rule.
func TestClassifyNudgedVertices(t *testing.T) {
	dom := testDomain()
	cases := diffCases(dom, 2, 400, true)
	cells, disagree := 0, 0
	for ci, dc := range cases {
		forEachCell(dom, dc, func(r geom.Rect) {
			cells++
			got, old := dc.p.ClassifyRect(r), oracleClassify(dc.p, r)
			if got == old {
				return
			}
			disagree++
			if exact := exactClassify(dc.p, r); exact != got {
				t.Errorf("case %d (%v, level %d): ClassifyRect(%v) = %d, old body %d, exact %d",
					ci, dc.p, dc.level, r, got, old, exact)
			}
		})
		c := MustCoverer(dom, DefaultOptions(dc.level))
		assertSameCovering(t, "full ring", c.Cover(dc.p), c.Cover(fullRingRegion{dc.p}))
	}
	t.Logf("%d cells, %d disagreements with the old body", cells, disagree)
	for level := 8; level <= 14; level++ {
		var regions []Region
		for _, dc := range cases {
			if dc.level == level {
				regions = append(regions, dc.p)
			}
		}
		c := MustCoverer(dom, DefaultOptions(level))
		for i, cov := range c.CoverShared(regions).Covers {
			assertSameCovering(t, "shared", cov, c.Cover(regions[i]))
		}
	}
}

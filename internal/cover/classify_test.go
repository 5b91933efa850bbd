package cover

import (
	"fmt"
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

// exactOrient is the sign of (b−a) × (c−a), in integers: each coordinate
// is an integer times 2^e for the least exponent e among them, and the
// sign does not depend on the scale.
func exactOrient(a, b, c geom.Point) int {
	xs := [6]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y}
	e0 := math.MaxInt
	for _, x := range xs {
		if x != 0 {
			_, e := math.Frexp(x)
			e0 = min(e0, e-53)
		}
	}
	var v [6]*big.Int
	for i, x := range xs {
		m, e := math.Frexp(x)
		v[i] = big.NewInt(int64(m * (1 << 53)))
		if x != 0 {
			v[i].Lsh(v[i], uint(e-53-e0))
		}
	}
	l := new(big.Int).Mul(new(big.Int).Sub(v[2], v[0]), new(big.Int).Sub(v[5], v[1]))
	r := new(big.Int).Mul(new(big.Int).Sub(v[3], v[1]), new(big.Int).Sub(v[4], v[0]))
	return l.Cmp(r)
}

// ratOrient is the sign of (b−a) × (c−a) in plain rational arithmetic:
// the determinant exactOrient's integer scaling must reproduce.
func ratOrient(a, b, c geom.Point) int {
	l := new(big.Rat).Mul(new(big.Rat).Sub(rat(b.X), rat(a.X)), new(big.Rat).Sub(rat(c.Y), rat(a.Y)))
	r := new(big.Rat).Mul(new(big.Rat).Sub(rat(b.Y), rat(a.Y)), new(big.Rat).Sub(rat(c.X), rat(a.X)))
	return l.Cmp(r)
}

// TestExactOrientMatchesRational holds the oracle's scaled-integer sign to
// the rational determinant, on the shapes the covering tests feed it
// (random, grid-snapped, one ulp off the grid, collinear) and on the ends
// of the float64 range: huge, tiny, subnormal, zero and mixed scales.
func TestExactOrientMatchesRational(t *testing.T) {
	pt := geom.Pt
	sub, top := math.SmallestNonzeroFloat64, math.MaxFloat64
	table := [][3]geom.Point{
		{pt(0, 0), pt(1, 0), pt(0, 1)},
		{pt(0, 0), pt(0, 0), pt(0, 0)},
		{pt(0x1.0000000000029p-1, 0x1.0000000000030p-1), pt(12, 12), pt(24, 24)},
		{pt(0.1, 0.2), pt(0.3, 0.6), pt(0.2, 0.4)},
		{pt(top, top), pt(-top, -top), pt(top, -top)},
		{pt(top, top), pt(-top, -top), pt(0, 0)},
		{pt(sub, 0), pt(0, sub), pt(sub, sub)},
		{pt(0, 0), pt(sub, 2*sub), pt(2*sub, 4*sub)},
		{pt(-sub, 3*sub), pt(0x1p-1022, -0x1p-1022), pt(0x1.8p-1022, sub)},
		{pt(0, sub), pt(0x1p900, 0x1p900), pt(0x1p901, 0x1p901)},
		{pt(0, 0), pt(0x1p900, 0x1p-900), pt(0x1p901, 0x1p-899)},
		{pt(top, sub), pt(-sub, top), pt(sub, -top)},
	}
	rng := rand.New(rand.NewSource(5))
	snapped := func() float64 {
		step := math.Ldexp(1, -4-rng.Intn(11))
		return math.Floor((200*rng.Float64()-100)/step) * step
	}
	nudged := func() float64 {
		x := snapped()
		return math.Nextafter(x, x+float64(rng.Intn(3)-1))
	}
	// extreme draws a mantissa at any binary exponent a float64 has,
	// subnormals included, or zero.
	extreme := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		x := math.Ldexp(1+rng.Float64(), rng.Intn(2098)-1074)
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}
	for _, gen := range []func() float64{
		func() float64 { return 200*rng.Float64() - 100 }, snapped, nudged, extreme,
	} {
		for i := 0; i < 2000; i++ {
			table = append(table, [3]geom.Point{pt(gen(), gen()), pt(gen(), gen()), pt(gen(), gen())})
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := pt(nudged(), nudged()), pt(nudged(), nudged())
		f := float64(rng.Intn(64)-16) / 32
		table = append(table, [3]geom.Point{a, b, pt(a.X+f*(b.X-a.X), a.Y+f*(b.Y-a.Y))})
	}
	zeros := 0
	for _, tr := range table {
		want := ratOrient(tr[0], tr[1], tr[2])
		if got := exactOrient(tr[0], tr[1], tr[2]); got != want {
			t.Fatalf("exactOrient(%v, %v, %v) = %d, rational %d", tr[0], tr[1], tr[2], got, want)
		}
		if want == 0 {
			zeros++
		}
	}
	t.Logf("%d triples, %d collinear", len(table), zeros)
}

func inBox(a, b, p geom.Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

func exactSegmentsMeet(a, b, c, d geom.Point) bool {
	d1, d2 := exactOrient(c, d, a), exactOrient(c, d, b)
	if d1*d2 > 0 {
		return false // a and b strictly on one side of cd's line
	}
	d3, d4 := exactOrient(a, b, c), exactOrient(a, b, d)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	return d1 == 0 && inBox(c, d, a) || d2 == 0 && inBox(c, d, b) ||
		d3 == 0 && inBox(a, b, c) || d4 == 0 && inBox(a, b, d)
}

func exactSegmentMeetsRect(a, b geom.Point, r geom.Rect) bool {
	// Comparisons are exact: a segment outside r's box cannot meet r.
	if !geom.RectFromPoints(a, b).Intersects(r) {
		return false
	}
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

// exactRegion covers a polygon through exactClassify, after the
// bounding-box check geom.Polygon.ClassifyRect starts with: the covering
// exact arithmetic gives.
type exactRegion struct{ p *geom.Polygon }

func (e exactRegion) Bound() geom.Rect { return e.p.Bound() }
func (e exactRegion) ClassifyRect(r geom.Rect) geom.RectRelation {
	if !e.p.Bound().Intersects(r) {
		return geom.RectDisjoint
	}
	return exactClassify(e.p, r)
}

// TestCoverMatchesExactOracle: Cover is the covering exact arithmetic
// gives, cell for cell and flag for flag, on every covering of
// diffCases(dom, 2, 400, nudge) × nudge {true, false} × MaxCells {8, 100,
// 2048}: polygons whose vertices sit on grid lines or one ulp off them,
// where the signs the walk takes (edge against cell, corner to centre)
// are zero or within rounding of it. The two sets run in parallel.
func TestCoverMatchesExactOracle(t *testing.T) {
	dom := testDomain()
	for _, nudge := range []bool{true, false} {
		t.Run(fmt.Sprintf("nudge=%t", nudge), func(t *testing.T) {
			t.Parallel()
			cases, n := diffCases(dom, 2, 400, nudge), 0
			for _, maxCells := range []int{8, 100, 2048} {
				for ci, dc := range cases {
					c := MustCoverer(dom, Options{MaxLevel: dc.level, MaxCells: maxCells})
					if d := diffCovering(c.Cover(dc.p), c.Cover(exactRegion{dc.p})); d != "" {
						t.Fatalf("case %d (%v, level %d), MaxCells %d: %s", ci, dc.p, dc.level, maxCells, d)
					}
					n++
				}
			}
			t.Logf("%d coverings equal the exact oracle's", n)
		})
	}
}

// TestCoverHolesMatchExactOracle: the carried ring masks keep one bit per
// ring, so ContainsPoint's rule (inside the outer ring and no hole) holds
// for holes AddHole does not check — outside the outer ring, across it,
// overlapping each other — and for vertices on the cell centres the masks
// are carried through. A polygon with more rings than a mask holds takes
// ContainsPoint instead. Each covering equals both the exact oracle's and
// the whole-ring ClassifyRect's. (Every hole here stays inside the outer
// ring's bounding box: outside it, ClassifyRect's bounding-box check and
// the walk's edge lists disagree, as they did before the masks.)
func TestCoverHolesMatchExactOracle(t *testing.T) {
	dom := testDomain()
	ring := func(pts ...float64) []geom.Point {
		r := make([]geom.Point, len(pts)/2)
		for i := range r {
			r[i] = geom.Pt(pts[2*i], pts[2*i+1])
		}
		return r
	}
	square := func(x, y, s float64) []geom.Point { return ring(x, y, x+s, y, x+s, y+s, x, y+s) }
	poly := func(outer []geom.Point, holes ...[]geom.Point) *geom.Polygon {
		p := geom.NewPolygon(outer)
		for _, h := range holes {
			if err := p.AddHole(h); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	// centre is the centre of the level-cell (i, j): the corner its
	// children share, which the walk carries a mask for.
	centre := func(i, j uint32, level int) geom.Point {
		return dom.CellRectAt(2*i+1, 2*j+1, level+1).Min
	}
	// A C-shaped outer ring, open to the east, around a notch x in
	// [40, 60], y in [40, 60].
	cShape := ring(30, 30, 70, 30, 70, 40, 40, 40, 40, 60, 70, 60, 70, 70, 30, 70)
	var grid [][]geom.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			grid = append(grid, square(31+6*float64(i), 31+6*float64(j), 3))
		}
	}
	c5, c6 := centre(9, 10, 5), centre(37, 41, 7)
	cases := []struct {
		name string
		p    *geom.Polygon
	}{
		{"hole outside the outer ring", poly(cShape, square(50, 45, 8))},
		{"hole across the outer ring", poly(cShape, ring(35, 45, 55, 45, 55, 55, 35, 55))},
		{"hole across and hole inside", poly(cShape, square(62, 35, 8), square(33, 33, 4))},
		{"overlapping holes", poly(square(20, 20, 60), square(30, 30, 25), square(40, 40, 25))},
		{"nested holes", poly(square(20, 20, 60), square(30, 30, 40), square(40, 40, 20))},
		{"vertices on cell centres", poly(ring(
			c5.X, c5.Y, centre(12, 10, 5).X, centre(12, 10, 5).Y, centre(12, 13, 5).X, centre(12, 13, 5).Y,
			c6.X, c6.Y, centre(38, 44, 7).X, centre(38, 44, 7).Y, centre(9, 13, 5).X, centre(9, 13, 5).Y),
			ring(centre(10, 11, 5).X, centre(10, 11, 5).Y, centre(11, 11, 5).X, centre(11, 11, 5).Y, centre(11, 12, 5).X, centre(11, 12, 5).Y))},
		{"diagonal through centres", poly(ring(
			dom.CellRectAt(8, 8, 4).Min.X, dom.CellRectAt(8, 8, 4).Min.Y,
			dom.CellRectAt(12, 8, 4).Min.X, dom.CellRectAt(12, 8, 4).Min.Y,
			dom.CellRectAt(12, 12, 4).Min.X, dom.CellRectAt(12, 12, 4).Min.Y))},
		{"more rings than a mask", poly(square(30, 30, 37), grid...)},
		{"more rings, overlapping", poly(square(30, 30, 37), append(grid, square(32, 32, 10), square(50, 31, 6))...)},
	}
	if got := 1 + len(cases[len(cases)-2].p.Holes()); got <= maskRings {
		t.Fatalf("the many-ring case has %d rings, want more than %d", got, maskRings)
	}
	for _, tc := range cases {
		for _, maxLevel := range []int{7, 10} {
			for _, maxCells := range []int{24, 2048} {
				c := MustCoverer(dom, Options{MaxLevel: maxLevel, MaxCells: maxCells})
				got := c.Cover(tc.p)
				if d := diffCovering(got, c.Cover(exactRegion{tc.p})); d != "" {
					t.Errorf("%s, level %d, MaxCells %d: against the exact oracle: %s", tc.name, maxLevel, maxCells, d)
				}
				if d := diffCovering(got, c.Cover(fullRingRegion{tc.p})); d != "" {
					t.Errorf("%s, level %d, MaxCells %d: against ClassifyRect: %s", tc.name, maxLevel, maxCells, d)
				}
			}
		}
	}
}

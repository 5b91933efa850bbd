package cover

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// The coverer classifies a polygon cell by one rule — some ring edge
// meets the closed cell ? boundary : interior iff a point of it is inside
// — over edge lists inherited down the walk, with the point's side carried
// from the parent. The tests below hold it to the same rule in exact
// integer arithmetic (exactClassify), per cell and per covering, on the
// shapes where closed-rectangle predicates are fragile: edges and corners
// that touch, holes, vertices exactly on grid lines, and vertices one ulp
// off them.

// exactClassify is the two-step rule in exact integer arithmetic: some
// ring edge meets the closed rect ? boundary : r.Min inside (outer
// ring and no hole, even-odd) ? interior : disjoint.
func exactClassify(p *geom.Polygon, r geom.Rect) relation {
	rings := append([][]geom.Point{p.Outer()}, p.Holes()...)
	for _, ring := range rings {
		a := ring[len(ring)-1]
		for _, b := range ring {
			if exactSegmentMeetsRect(a, b, r) {
				return boundary
			}
			a = b
		}
	}
	if !exactRingContains(p.Outer(), r.Min) {
		return disjoint
	}
	for _, h := range p.Holes() {
		if exactRingContains(h, r.Min) {
			return disjoint
		}
	}
	return interior
}

// wholeRing classifies r as the walk classifies its start cell: against
// every edge, with no carried mask.
func wholeRing(p *geom.Polygon, r geom.Rect) relation {
	k := newClassifier(p, nil)
	var out []int32
	return k.classify(r, k.appendAll(nil), &out, unknownMask)
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
	var v [10]big.Int
	for i, x := range xs {
		m, e := math.Frexp(x)
		v[i].SetInt64(int64(m * (1 << 53)))
		if x != 0 {
			v[i].Lsh(&v[i], uint(e-53-e0))
		}
	}
	l := v[8].Mul(v[6].Sub(&v[2], &v[0]), v[7].Sub(&v[5], &v[1]))
	r := v[9].Mul(v[6].Sub(&v[3], &v[1]), v[7].Sub(&v[4], &v[0]))
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

// exactRingContains is the even-odd ray cast, exact: an edge spanning
// pt.Y half-open is crossed when pt.X lies below the crossing abscissa
// a.X + (pt.Y−a.Y)/(b.Y−a.Y)·(b.X−a.X), which multiplied through by
// b.Y−a.Y is exactOrient(a, b, pt) > 0 for an upward edge and < 0 for a
// downward one. pt must not lie on the ring.
func exactRingContains(ring []geom.Point, pt geom.Point) bool {
	in := false
	a := ring[len(ring)-1]
	for _, b := range ring {
		if (a.Y > pt.Y) != (b.Y > pt.Y) && (exactOrient(a, b, pt) > 0) == (b.Y > a.Y) {
			in = !in
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

// checkCells classifies every cell forEachCell visits as the walk's start
// cell is classified (every edge, no carried mask) and holds it to exact
// arithmetic: exactClassify on the cells some edge's box meets, and
// ContainsPoint(r.Min) on the rest, which no edge can meet. It returns
// the two counts.
func checkCells(t *testing.T, dom cellid.Domain, cases []diffCase) (exact, point int) {
	t.Helper()
	var out []int32
	for ci, dc := range cases {
		k := newClassifier(dc.p, nil)
		all := k.appendAll(nil)
		forEachCell(dom, dc, func(r geom.Rect) {
			got := k.classify(r, all, &out, unknownMask)
			out = out[:0]
			want := disjoint
			if slices.ContainsFunc(k.edges, func(e edge) bool { return e.bb.Intersects(r) }) {
				exact++
				want = exactClassify(dc.p, r)
			} else if point++; dc.p.ContainsPoint(r.Min) {
				want = interior
			}
			if got != want {
				t.Fatalf("case %d (%v, level %d): classify(%v) = %d, exact %d", ci, dc.p, dc.level, r, got, want)
			}
		})
	}
	return exact, point
}

// TestClassifyMatchesOracle: on random-float and grid-snapped polygons,
// over more than a million cells, the walk's per-cell rule equals exact
// arithmetic.
func TestClassifyMatchesOracle(t *testing.T) {
	dom := testDomain()
	exact, point := checkCells(t, dom, diffCases(dom, 1, 4000, false))
	if exact+point < 1_000_000 {
		t.Fatalf("classified %d cells, want at least 1M", exact+point)
	}
	t.Logf("%d cells an edge's box meets equal exactClassify, %d others equal ContainsPoint", exact, point)
}

// TestClassifyNudgedVertices: with vertices one ulp off grid lines, where
// float predicates can disagree, the per-cell rule still equals exact
// arithmetic, and CoverShared still gives each region Cover's covering.
func TestClassifyNudgedVertices(t *testing.T) {
	dom := testDomain()
	cases := diffCases(dom, 2, 400, true)
	exact, point := checkCells(t, dom, cases)
	t.Logf("%d cells an edge's box meets equal exactClassify, %d others equal ContainsPoint", exact, point)
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

// TestClassifyCases: the rule on hand-picked rectangles — edges and
// corners that touch, a rectangle engulfing the polygon, one inside or
// across a hole, a concave notch, and vertices one ulp off a rectangle's
// side. The walk's whole-ring classification and exactClassify must both
// give the expected relation.
func TestClassifyCases(t *testing.T) {
	pt, up, down := geom.Pt, func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) },
		func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	rect := func(x0, y0, x1, y1 float64) geom.Rect { return geom.Rect{Min: pt(x0, y0), Max: pt(x1, y1)} }
	sq := geom.NewPolygon([]geom.Point{pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)})
	tri := geom.NewPolygon([]geom.Point{pt(0, 0), pt(8, 0), pt(4, 8)})
	holed := geom.NewPolygon([]geom.Point{pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)})
	if err := holed.AddHole([]geom.Point{pt(4, 4), pt(6, 4), pt(6, 6), pt(4, 6)}); err != nil {
		t.Fatal(err)
	}
	concave := geom.NewPolygon([]geom.Point{pt(0, 0), pt(12, 0), pt(12, 10), pt(6, 3), pt(0, 10)})
	hyp := geom.NewPolygon([]geom.Point{pt(0, 0), pt(10, 0), pt(0, 10)})
	left := geom.NewPolygon([]geom.Point{pt(0, 0), pt(down(10), 0), pt(down(10), 10), pt(0, 10)})
	right := geom.NewPolygon([]geom.Point{pt(0, 0), pt(up(10), 0), pt(up(10), 10), pt(0, 10)})
	for _, tc := range []struct {
		name string
		p    *geom.Polygon
		r    geom.Rect
		want relation
	}{
		{"square: inside", sq, rect(2, 2, 4, 4), interior},
		{"square: on its ring", sq, rect(0, 0, 10, 10), boundary},
		{"square: engulfed", sq, rect(-2, -2, 12, 12), boundary},
		{"square: across a corner", sq, rect(8, 8, 12, 12), boundary},
		{"square: edge touch from outside", sq, rect(10, 2, 12, 4), boundary},
		{"square: corner touch", sq, rect(10, 10, 12, 12), boundary},
		{"square: outside", sq, rect(11, 11, 12, 12), disjoint},
		{"triangle: inside", tri, rect(3, 1, 5, 2), interior},
		{"triangle: engulfed", tri, rect(-2, -2, 10, 10), boundary},
		{"triangle: its bounding box", tri, rect(0, 0, 8, 8), boundary},
		{"triangle: across the left edge", tri, rect(-2, 3, 2, 5), boundary},
		{"triangle: across the left edge, low", tri, rect(-1, 1, 2, 2), boundary},
		{"triangle: vertex touch", tri, rect(8, 0, 9, 1), boundary},
		{"triangle: beside the apex", tri, rect(0, 7, 1, 8), disjoint},
		{"triangle: outside, above", tri, rect(9, 9, 12, 12), disjoint},
		{"triangle: outside, below", tri, rect(-4, -4, -1, -1), disjoint},
		{"hole: clear of it", holed, rect(1, 1, 3, 3), interior},
		{"hole: engulfed", holed, rect(3, 3, 7, 7), boundary},
		{"hole: on its ring", holed, rect(4, 4, 6, 6), boundary},
		{"hole: across its edge", holed, rect(3, 4.5, 5, 5.5), boundary},
		{"hole: inside it", holed, rect(4.5, 4.5, 5.5, 5.5), disjoint},
		{"concave: in the notch", concave, rect(5, 6, 7, 8), disjoint},
		{"concave: below the notch", concave, rect(1, 1, 11, 2), interior},
		{"concave: across the notch vertex", concave, rect(2, 2, 10, 5), boundary},
		{"nudged: corner on the hypotenuse", hyp, rect(4, 4, 5, 5), boundary},
		{"nudged: corner one ulp inside", hyp, rect(4, 4, 5, down(5)), interior},
		{"nudged: corner one ulp outside", hyp, rect(5, up(5), 6, 6), disjoint},
		{"nudged: side one ulp left of the rectangle", left, rect(10, 2, 12, 4), disjoint},
		{"nudged: side one ulp inside the rectangle", right, rect(10, 2, 12, 4), boundary},
	} {
		if got := wholeRing(tc.p, tc.r); got != tc.want {
			t.Errorf("%s: classify(%v) = %d, want %d", tc.name, tc.r, got, tc.want)
		}
		if got := exactClassify(tc.p, tc.r); got != tc.want {
			t.Errorf("%s: exactClassify(%v) = %d, want %d", tc.name, tc.r, got, tc.want)
		}
	}
}

// TestClassifyRandomRects: on a convex, a concave and a holed polygon,
// rectangles from slivers to ones engulfing the polygon get exact
// arithmetic's relation, and sampled points agree with it: every point
// of an interior rectangle is contained, and a rectangle holding a
// contained point is not disjoint.
func TestClassifyRandomRects(t *testing.T) {
	pt := geom.Pt
	convex := geom.NewPolygon([]geom.Point{pt(0, 0), pt(10, 1), pt(12, 7), pt(6, 11), pt(-1, 6)})
	concave := geom.NewPolygon([]geom.Point{pt(0, 0), pt(12, 0), pt(12, 10), pt(6, 3), pt(0, 10)})
	holed := geom.NewPolygon([]geom.Point{pt(0, 0), pt(12, 0), pt(12, 12), pt(0, 12)})
	if err := holed.AddHole([]geom.Point{pt(4, 4), pt(8, 4), pt(8, 8), pt(4, 8)}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := map[relation]int{}
	for i := 0; i < 4000; i++ {
		p := []*geom.Polygon{convex, concave, holed}[i%3]
		x0, y0 := float64(rng.Intn(1<<16))/4096-2, float64(rng.Intn(1<<16))/4096-2
		r := geom.Rect{Min: pt(x0, y0), Max: pt(x0+float64(rng.Intn(1<<16))/1024, y0+float64(rng.Intn(1<<16))/1024)}
		got := wholeRing(p, r)
		if want := exactClassify(p, r); got != want {
			t.Fatalf("%v: classify(%v) = %d, exact %d", p, r, got, want)
		}
		counts[got]++
		for k := 0; k < 16; k++ {
			in := p.ContainsPoint(pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height()))
			if got == interior && !in || got == disjoint && in {
				t.Fatalf("%v: classify(%v) = %d, but a sampled point has ContainsPoint %t", p, r, got, in)
			}
		}
	}
	t.Logf("disjoint %d, boundary %d, interior %d", counts[disjoint], counts[boundary], counts[interior])
}

// exactRegion covers a polygon through exactClassify: the covering exact
// arithmetic gives.
type exactRegion struct{ p *geom.Polygon }

func (e exactRegion) Bound() geom.Rect                  { return e.p.Bound() }
func (e exactRegion) classifyRect(r geom.Rect) relation { return exactClassify(e.p, r) }

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
// for holes AddHole does not check — outside the outer ring or past its
// bounding box, across it, overlapping each other — and for vertices on
// the cell centres the masks are carried through. A polygon with more
// rings than a mask holds takes ContainsPoint instead. Each covering
// equals the exact oracle's.
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
		{"hole past the box to the east", poly(cShape, square(60, 45, 20))},
		{"hole past the box to the south", poly(square(20, 20, 40), ring(30, 10, 50, 10, 50, 30, 30, 30))},
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
				if d := diffCovering(c.Cover(tc.p), c.Cover(exactRegion{tc.p})); d != "" {
					t.Errorf("%s, level %d, MaxCells %d: against the exact oracle: %s", tc.name, maxLevel, maxCells, d)
				}
			}
		}
	}
}

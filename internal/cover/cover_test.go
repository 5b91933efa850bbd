package cover

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

func testDomain() cellid.Domain {
	return cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)})
}

func testPolygon() *geom.Polygon {
	// An irregular convex pentagon around the domain centre.
	return geom.NewPolygon([]geom.Point{
		geom.Pt(20, 30), geom.Pt(60, 15), geom.Pt(85, 50), geom.Pt(55, 85), geom.Pt(25, 70),
	})
}

func TestCoveringContainsPolygonPoints(t *testing.T) {
	dom := testDomain()
	poly := testPolygon()
	cov := MustCoverer(dom, DefaultOptions(12)).Cover(poly)
	if cov.Len() == 0 {
		t.Fatal("empty covering")
	}
	// Every sampled interior point must fall in some covering cell.
	rng := rand.New(rand.NewSource(42))
	bb := poly.Bound()
	checked := 0
	for checked < 2000 {
		p := geom.Pt(bb.Min.X+rng.Float64()*bb.Width(), bb.Min.Y+rng.Float64()*bb.Height())
		if !poly.ContainsPoint(p) {
			continue
		}
		checked++
		leaf := dom.FromPoint(p)
		found := false
		for _, id := range cov.Cells {
			if id.Contains(leaf) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("interior point %v not covered", p)
		}
	}
}

func TestCoveringCellsDisjointAndSorted(t *testing.T) {
	cov := MustCoverer(testDomain(), DefaultOptions(12)).Cover(testPolygon())
	for i := 1; i < cov.Len(); i++ {
		if cov.Cells[i-1] >= cov.Cells[i] {
			t.Fatalf("cells not strictly ascending at %d", i)
		}
		if cov.Cells[i-1].RangeMax() >= cov.Cells[i].RangeMin() {
			t.Fatalf("cells %v and %v overlap", cov.Cells[i-1], cov.Cells[i])
		}
	}
}

func TestCoveringRespectsLevelBounds(t *testing.T) {
	opts := Options{MaxLevel: 9, MaxCells: 500}
	cov := MustCoverer(testDomain(), opts).Cover(testPolygon())
	for i, id := range cov.Cells {
		if l := id.Level(); l > opts.MaxLevel {
			t.Fatalf("cell %d level %d finer than MaxLevel %d", i, l, opts.MaxLevel)
		}
	}
}

func TestCoveringRespectsMaxCells(t *testing.T) {
	for _, maxCells := range []int{4, 16, 64, 256} {
		opts := Options{MaxLevel: 14, MaxCells: maxCells}
		cov := MustCoverer(testDomain(), opts).Cover(testPolygon())
		if cov.Len() > maxCells {
			t.Fatalf("maxCells=%d: covering has %d cells", maxCells, cov.Len())
		}
	}
}

func TestInteriorFlagsAreCorrect(t *testing.T) {
	dom := testDomain()
	poly := testPolygon()
	cov := MustCoverer(dom, DefaultOptions(10)).Cover(poly)
	interiorCount := 0
	for i, id := range cov.Cells {
		rel := exactClassify(poly, dom.CellRect(id))
		if cov.Interior[i] {
			interiorCount++
			if rel != interior {
				t.Fatalf("cell %v flagged interior but not contained", id)
			}
		}
		if rel == disjoint {
			t.Fatalf("cell %v in covering but does not intersect polygon", id)
		}
	}
	if interiorCount == 0 {
		t.Fatal("covering of a large polygon should contain interior cells")
	}
}

func TestFinerCoveringReducesAreaError(t *testing.T) {
	dom := testDomain()
	poly := testPolygon()
	var prev float64 = -1
	for _, lvl := range []int{6, 8, 10, 12} {
		cov := MustCoverer(dom, Options{MaxLevel: lvl, MaxCells: 100000}).Cover(poly)
		// Area overshoot of the covering, as a fraction of the polygon's.
		coverArea := 0.0
		for _, id := range cov.Cells {
			coverArea += dom.CellRect(id).Area()
		}
		errFrac := (coverArea - poly.Area()) / poly.Area()
		if errFrac < 0 {
			t.Fatalf("level %d: negative area error %g (covering smaller than polygon)", lvl, errFrac)
		}
		if prev >= 0 && errFrac > prev {
			t.Fatalf("level %d: area error %g did not shrink from %g", lvl, errFrac, prev)
		}
		prev = errFrac
	}
	if prev > 0.05 {
		t.Fatalf("finest covering error %g too large", prev)
	}
}

func TestCoverRectEquivalentToRectPolygon(t *testing.T) {
	dom := testDomain()
	r := geom.Rect{Min: geom.Pt(22, 31), Max: geom.Pt(57, 66)}
	c := MustCoverer(dom, DefaultOptions(10))
	covRect := c.CoverRect(r)
	covPoly := c.Cover(r.Polygon())
	if covRect.Len() != covPoly.Len() {
		t.Fatalf("rect cover %d cells, polygon cover %d", covRect.Len(), covPoly.Len())
	}
	for i := range covRect.Cells {
		if covRect.Cells[i] != covPoly.Cells[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestCoverOutsideDomainIsEmpty(t *testing.T) {
	dom := testDomain()
	poly := geom.NewPolygon([]geom.Point{
		geom.Pt(200, 200), geom.Pt(210, 200), geom.Pt(205, 210),
	})
	cov := MustCoverer(dom, DefaultOptions(10)).Cover(poly)
	if cov.Len() != 0 {
		t.Fatalf("covering outside domain has %d cells", cov.Len())
	}
}

func TestSmallPolygonGetsCovered(t *testing.T) {
	dom := testDomain()
	// A polygon much smaller than a max-level cell must still be covered.
	tiny := geom.RegularPolygon(geom.Pt(50.0001, 50.0001), 1e-6, 8)
	cov := MustCoverer(dom, DefaultOptions(8)).Cover(tiny)
	if cov.Len() == 0 {
		t.Fatal("tiny polygon got empty covering")
	}
	leaf := dom.FromPoint(geom.Pt(50.0001, 50.0001))
	found := false
	for _, id := range cov.Cells {
		if id.Contains(leaf) {
			found = true
		}
	}
	if !found {
		t.Fatal("tiny polygon centre not covered")
	}
}

func TestOptionsValidation(t *testing.T) {
	dom := testDomain()
	if _, err := NewCoverer(dom, Options{MaxLevel: -1, MaxCells: 8}); err == nil {
		t.Error("negative MaxLevel accepted")
	}
	if _, err := NewCoverer(dom, Options{MaxLevel: 5, MaxCells: 0}); err == nil {
		t.Error("zero MaxCells accepted")
	}
	if _, err := NewCoverer(cellid.Domain{}, DefaultOptions(5)); err == nil {
		t.Error("zero domain accepted")
	}
}

func TestConcavePolygonCovering(t *testing.T) {
	dom := testDomain()
	// U-shaped polygon; the covering must not include the middle gap's
	// interior cells at fine levels.
	u := geom.NewPolygon([]geom.Point{
		geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90), geom.Pt(70, 90),
		geom.Pt(70, 30), geom.Pt(30, 30), geom.Pt(30, 90), geom.Pt(10, 90),
	})
	c := MustCoverer(dom, Options{MaxLevel: 10, MaxCells: 100000})
	cov := c.Cover(u)
	gap := dom.FromPoint(geom.Pt(50, 60)) // inside the U's notch
	for _, id := range cov.Cells {
		if id.Contains(gap) && cov.Interior[indexOf(cov.Cells, id)] {
			t.Fatalf("interior cell %v covers the notch", id)
		}
	}
	// The notch centre may only be covered by a boundary cell whose rect
	// still intersects the polygon.
	for i, id := range cov.Cells {
		if id.Contains(gap) && cov.Interior[i] {
			t.Fatalf("notch covered by interior cell %v", id)
		}
	}
}

func indexOf(cells []cellid.ID, id cellid.ID) int {
	for i, c := range cells {
		if c == id {
			return i
		}
	}
	return -1
}

// coverDiffPolygons is the fixed input of TestCoverMatchesGolden: jittered
// star polygons (concave, 12-24 vertices) from tract size to a third of
// the domain, some hanging over its edge, so tight budgets truncate and
// generous ones refine the whole outline.
func coverDiffPolygons() []*geom.Polygon {
	rng := rand.New(rand.NewSource(7))
	polys := make([]*geom.Polygon, 100)
	for i := range polys {
		r := 0.3 * math.Pow(120, rng.Float64())
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		n := 12 + rng.Intn(13)
		ring := make([]geom.Point, n)
		for j := range ring {
			a := 2 * math.Pi * float64(j) / float64(n)
			rj := r * (0.55 + 0.45*rng.Float64())
			ring[j] = geom.Pt(c.X+rj*math.Cos(a), c.Y+rj*math.Sin(a))
		}
		polys[i] = geom.NewPolygon(ring)
	}
	return polys
}

// TestCoverMatchesGolden pins Cover's output — cells, order, Interior
// flags, truncation under tight budgets — to FNV-1a hashes. One hash per
// MaxCells folds every MaxLevel x polygon covering. The hashes were taken
// from a walk that matched the best-first heap implementation the
// level-order walk replaced.
func TestCoverMatchesGolden(t *testing.T) {
	var regions []Region
	for _, p := range coverDiffPolygons() {
		regions = append(regions, p)
	}
	checkGolden(t, regions, []golden{
		{4, 0x59062a290b0ae855},
		{8, 0xff0daac7e0ba8b7e},
		{24, 0x2c71d19fceb55b09},
		{100, 0xd2dd3c7307845ec8},
		{500, 0x3cac57782bc66daf},
		{2048, 0xdcaf3dfa72e35d04},
	})
}

// golden is one covering hash: every region covered at MaxLevel 6, 10,
// 14 and 18 under one MaxCells.
type golden struct {
	maxCells int
	hash     uint64
}

// checkGolden hashes regions' coverings — each cell's id and Interior
// flag, then a separator per covering — for every golden row and compares.
func checkGolden(t *testing.T, regions []Region, rows []golden) {
	t.Helper()
	dom := testDomain()
	for _, g := range rows {
		h := fnv.New64a()
		var buf [9]byte
		for _, maxLevel := range []int{6, 10, 14, 18} {
			c := MustCoverer(dom, Options{MaxLevel: maxLevel, MaxCells: g.maxCells})
			for _, rg := range regions {
				cov := c.Cover(rg)
				for i, id := range cov.Cells {
					binary.LittleEndian.PutUint64(buf[:], uint64(id))
					buf[8] = 0
					if cov.Interior[i] {
						buf[8] = 1
					}
					h.Write(buf[:])
				}
				h.Write([]byte{0xff})
			}
		}
		if got := h.Sum64(); got != g.hash {
			t.Errorf("MaxCells=%d: covering hash %#x, golden %#x", g.maxCells, got, g.hash)
		}
	}
}

// holeRectRegions is the fixed input of TestCoverHolesAndRectsMatchGolden:
// jittered stars with one hole, with two holes, and with one hole that
// crosses the outer ring (AddHole does not check containment), then
// rectangles, one of them flush with the domain border and one hanging
// over it.
func holeRectRegions() []Region {
	rng := rand.New(rand.NewSource(11))
	var regions []Region
	for i := 0; i < 36; i++ {
		r := 0.3 * math.Pow(120, rng.Float64())
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		n := 12 + rng.Intn(13)
		ring := make([]geom.Point, n)
		for j := range ring {
			a := 2 * math.Pi * float64(j) / float64(n)
			rj := r * (0.55 + 0.45*rng.Float64())
			ring[j] = geom.Pt(c.X+rj*math.Cos(a), c.Y+rj*math.Sin(a))
		}
		p := geom.NewPolygon(ring)
		var holes []*geom.Polygon
		switch i % 3 {
		case 0:
			holes = append(holes, geom.RegularPolygon(c, 0.3*r, 5+rng.Intn(6)))
		case 1:
			holes = append(holes,
				geom.RegularPolygon(geom.Pt(c.X-0.25*r, c.Y), 0.15*r, 4+rng.Intn(5)),
				geom.RegularPolygon(geom.Pt(c.X+0.25*r, c.Y), 0.15*r, 4+rng.Intn(5)))
		default:
			holes = append(holes, geom.RegularPolygon(geom.Pt(c.X+0.8*r, c.Y), 0.4*r, 6))
		}
		for _, h := range holes {
			if err := p.AddHole(h.Outer()); err != nil {
				panic(err)
			}
		}
		regions = append(regions, p)
	}
	for _, r := range []geom.Rect{
		{Min: geom.Pt(22, 31), Max: geom.Pt(57, 66)},
		{Min: geom.Pt(0, 20), Max: geom.Pt(30, 100)},
		{Min: geom.Pt(-10, 60), Max: geom.Pt(15, 110)},
		{Min: geom.Pt(49.9, 50.1), Max: geom.Pt(50.3, 50.2)},
		{Min: geom.Pt(12.5, 12.5), Max: geom.Pt(87.5, 37.5)},
	} {
		regions = append(regions, RectRegion(r))
	}
	return regions
}

// TestCoverHolesAndRectsMatchGolden pins what TestCoverMatchesGolden does
// not reach: polygons with holes, a hole crossing its outer ring, and
// rectangle regions. Same grid and hash layout; the hashes were taken
// from a walk that matched the one that decoded every cell's Hilbert id
// and sorted its output.
func TestCoverHolesAndRectsMatchGolden(t *testing.T) {
	checkGolden(t, holeRectRegions(), []golden{
		{4, 0xaa0d02da892108b1},
		{8, 0xe7018e5c111b450},
		{24, 0x492a56b3736334c},
		{100, 0xa421ccd3231c3ce0},
		{500, 0x7e8f7c0bb44a2efb},
		{2048, 0x2ae1fa51264e5647},
	})
}

// diffCovering describes the first difference between got and want, or
// returns "" when they are cell-for-cell and flag-for-flag identical.
func diffCovering(got, want *Covering) string {
	if len(got.Cells) != len(want.Cells) || len(got.Interior) != len(want.Interior) {
		return fmt.Sprintf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] || got.Interior[i] != want.Interior[i] {
			return fmt.Sprintf("cell %d = %v/%v, want %v/%v", i, got.Cells[i], got.Interior[i], want.Cells[i], want.Interior[i])
		}
	}
	return ""
}

// TestCoverConcurrentMatchesSerial checks the pooled walk scratch: eight
// goroutines share one Coverer, and every covering equals the serial one
// and stays equal after later Cover calls have reused the scratch. The
// regions are explore-shaped stars, a polygon truncated by MaxCells, and a
// 2 500-vertex polygon; the truncated polygon is also covered under a
// budget whose scratch is too large to go back to the pool. Overwriting a
// returned Covering must not change a later answer.
func TestCoverConcurrentMatchesSerial(t *testing.T) {
	dom := testDomain()
	c := MustCoverer(dom, DefaultOptions(14))
	wide := MustCoverer(dom, Options{MaxLevel: 14, MaxCells: 2 * maxPooledLen})
	rng := rand.New(rand.NewSource(5))
	type job struct {
		c  *Coverer
		rg Region
	}
	var jobs []job
	for _, p := range exploreStars(rng, 24) {
		jobs = append(jobs, job{c, p})
	}
	truncated := testPolygon()
	jobs = append(jobs, job{c, truncated}, job{c, geom.RegularPolygon(geom.Pt(50, 50), 25, 2500)}, job{wide, truncated})

	want := make([]*Covering, len(jobs))
	for i, j := range jobs {
		want[i] = j.c.Cover(j.rg)
	}
	if got := c.GuaranteedErrorDistance(want[len(jobs)-3]); got <= dom.CellDiagonal(14) {
		t.Fatalf("truncated polygon's covering was refined to MaxLevel (bound %g)", got)
	}
	if n := want[len(jobs)-1].Len(); n <= maxPooledLen {
		t.Fatalf("wide covering has %d cells, want more than %d", n, maxPooledLen)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kept := make([]*Covering, len(jobs))
			for round := 0; round < 2; round++ {
				for n := range jobs {
					i := (n + 5*g) % len(jobs)
					kept[i] = jobs[i].c.Cover(jobs[i].rg)
					if d := diffCovering(kept[i], want[i]); d != "" {
						errs <- fmt.Sprintf("goroutine %d job %d: %s", g, i, d)
						return
					}
				}
				// Earlier answers must survive every later walk.
				for i, cov := range kept {
					if d := diffCovering(cov, want[i]); d != "" {
						errs <- fmt.Sprintf("goroutine %d job %d, kept: %s", g, i, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for i, j := range jobs {
		cov := j.c.Cover(j.rg)
		for k := range cov.Cells {
			cov.Cells[k] = cellid.Root()
			cov.Interior[k] = !cov.Interior[k]
		}
		if d := diffCovering(j.c.Cover(j.rg), want[i]); d != "" {
			t.Fatalf("job %d after overwriting its last covering: %s", i, d)
		}
	}
}

package cover

import (
	"math"
	"math/rand"
	"testing"

	"geoblocks/internal/geom"
)

// randStar returns an irregular star-shaped polygon: n vertices at random
// radii around center. Exercises concave outlines, boundary cells at every
// level, and (for large radii) interior grid cells.
func randStar(rng *rand.Rand, center geom.Point, rmin, rmax float64, n int) *geom.Polygon {
	pts := make([]geom.Point, n)
	for i := range pts {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rmin + rng.Float64()*(rmax-rmin)
		pts[i] = geom.Pt(center.X+r*math.Cos(ang), center.Y+r*math.Sin(ang))
	}
	return geom.NewPolygon(pts)
}

func assertSameCovering(t *testing.T, label string, got, want *Covering) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d cells, Cover has %d", label, len(got.Cells), len(want.Cells))
	}
	for j := range want.Cells {
		if got.Cells[j] != want.Cells[j] {
			t.Fatalf("%s: cell %d = %v, Cover has %v", label, j, got.Cells[j], want.Cells[j])
		}
		if got.Interior[j] != want.Interior[j] {
			t.Fatalf("%s: cell %d interior = %v, Cover has %v", label, j, got.Interior[j], want.Interior[j])
		}
	}
}

// TestCoverSharedMatchesCover is the core identity property the join
// rests on: for every region, the join's covering is cell-for-cell
// (and flag-for-flag) identical to the single-region Cover, across
// region counts, shapes, sizes and block levels, and the pair counters
// count exactly the returned cells.
func TestCoverSharedMatchesCover(t *testing.T) {
	dom := testDomain()
	rng := rand.New(rand.NewSource(7))
	for _, maxLevel := range []int{8, 11, 13} {
		c := MustCoverer(dom, DefaultOptions(maxLevel))
		for _, n := range []int{1, 3, 40} {
			regions := make([]Region, n)
			for i := range regions {
				center := geom.Pt(5+rng.Float64()*90, 5+rng.Float64()*90)
				radius := 0.5 + rng.Float64()*20
				switch i % 3 {
				case 0:
					regions[i] = randStar(rng, center, radius/2, radius, 5+rng.Intn(8))
				case 1:
					regions[i] = RectRegion(geom.RectFromCenter(center, radius, radius/2))
				default:
					regions[i] = geom.RegularPolygon(center, radius, 3+rng.Intn(6))
				}
			}
			sc := c.CoverShared(regions)
			if len(sc.Covers) != n || len(sc.Bounds) != n {
				t.Fatalf("level %d n=%d: %d covers, %d bounds", maxLevel, n, len(sc.Covers), len(sc.Bounds))
			}
			interior, boundary := 0, 0
			for i, rg := range regions {
				want := c.Cover(rg)
				assertSameCovering(t, "region", sc.Covers[i], want)
				if sc.Bounds[i] != c.GuaranteedErrorDistance(want) {
					t.Fatalf("level %d region %d: bound %v, Cover bound %v",
						maxLevel, i, sc.Bounds[i], c.GuaranteedErrorDistance(want))
				}
				for _, in := range sc.Covers[i].Interior {
					if in {
						interior++
					} else {
						boundary++
					}
				}
			}
			if sc.InteriorPairs != interior || sc.BoundaryPairs != boundary {
				t.Fatalf("level %d n=%d: pairs %d interior / %d boundary, coverings have %d / %d",
					maxLevel, n, sc.InteriorPairs, sc.BoundaryPairs, interior, boundary)
			}
		}
	}
}

// TestCoverSharedTessellation pins the join's primary workload shape:
// adjacent rectangles sharing edges (census tracts / map tiles). Shared
// edges are the adversarial case for closed-rectangle predicates — a
// cell touching a region only along a grid line must appear in the
// shared covering exactly when Cover emits it.
func TestCoverSharedTessellation(t *testing.T) {
	dom := testDomain()
	c := MustCoverer(dom, DefaultOptions(7))
	var regions []Region
	const nx, ny = 8, 6
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			r := geom.Rect{
				Min: geom.Pt(float64(ix)*100/nx, float64(iy)*100/ny),
				Max: geom.Pt(float64(ix+1)*100/nx, float64(iy+1)*100/ny),
			}
			regions = append(regions, r.Polygon())
		}
	}
	sc := c.CoverShared(regions)
	if sc.InteriorPairs == 0 {
		t.Fatal("tessellation produced no interior pairs")
	}
	for i, rg := range regions {
		assertSameCovering(t, "tile", sc.Covers[i], c.Cover(rg))
	}
}

// TestCoverSharedTinyBudget: under a small MaxCells budget, where Cover
// truncates refinement, the join still gets exactly Cover's output for
// every region.
func TestCoverSharedTinyBudget(t *testing.T) {
	dom := testDomain()
	rng := rand.New(rand.NewSource(11))
	c := MustCoverer(dom, Options{MaxLevel: 13, MaxCells: 32})
	regions := make([]Region, 12)
	for i := range regions {
		center := geom.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		regions[i] = randStar(rng, center, 5, 25, 7)
	}
	sc := c.CoverShared(regions)
	for i, rg := range regions {
		assertSameCovering(t, "region", sc.Covers[i], c.Cover(rg))
	}
}

// TestCoverSharedEmptyAndOutside covers the degenerate ends: no regions,
// and regions outside the domain.
func TestCoverSharedEmptyAndOutside(t *testing.T) {
	c := MustCoverer(testDomain(), DefaultOptions(10))
	sc := c.CoverShared(nil)
	if len(sc.Covers) != 0 || sc.InteriorPairs != 0 || sc.BoundaryPairs != 0 {
		t.Fatalf("non-trivial shared covering of no regions: %+v", sc)
	}
	outside := geom.RegularPolygon(geom.Pt(500, 500), 10, 6)
	inside := geom.RegularPolygon(geom.Pt(50, 50), 10, 6)
	sc = c.CoverShared([]Region{outside, inside})
	if len(sc.Covers[0].Cells) != 0 {
		t.Fatalf("out-of-domain region got %d cells", len(sc.Covers[0].Cells))
	}
	if sc.Bounds[0] != 0 {
		t.Fatalf("out-of-domain region bound %v, want 0", sc.Bounds[0])
	}
	assertSameCovering(t, "inside", sc.Covers[1], c.Cover(inside))
}

// TestGuaranteedErrorBoundAfterTruncation pins the bound's
// post-truncation semantics: when the MaxCells budget exhausts and
// Cover emits unrefined boundary cells, GuaranteedErrorDistance must
// reflect the covering actually returned (the coarse leftover cells),
// not the MaxLevel refinement the budget precluded.
func TestGuaranteedErrorBoundAfterTruncation(t *testing.T) {
	dom := testDomain()
	poly := testPolygon()
	const maxLevel = 14
	full := MustCoverer(dom, Options{MaxLevel: maxLevel, MaxCells: 1 << 20})
	fullBound := full.GuaranteedErrorDistance(full.Cover(poly))
	if fullBound != dom.CellDiagonal(maxLevel) {
		t.Fatalf("untruncated bound %v, want one max-level diagonal %v", fullBound, dom.CellDiagonal(maxLevel))
	}
	trunc := MustCoverer(dom, Options{MaxLevel: maxLevel, MaxCells: 24})
	cov := trunc.Cover(poly)
	bound := trunc.GuaranteedErrorDistance(cov)
	// Recompute from the covering as returned: the bound must be the
	// diagonal of its coarsest boundary cell.
	coarsest := -1
	for i, id := range cov.Cells {
		if cov.Interior[i] {
			continue
		}
		if l := id.Level(); coarsest < 0 || l < coarsest {
			coarsest = l
		}
	}
	if coarsest < 0 {
		t.Fatal("truncated covering has no boundary cells")
	}
	if coarsest >= maxLevel {
		t.Fatal("24-cell budget did not truncate refinement")
	}
	if bound != dom.CellDiagonal(coarsest) {
		t.Fatalf("truncated bound %v, want post-truncation diagonal %v", bound, dom.CellDiagonal(coarsest))
	}
	if bound <= fullBound {
		t.Fatalf("truncated bound %v not coarser than untruncated %v", bound, fullBound)
	}
}

package cellid

import (
	"fmt"
	"math"

	"geoblocks/internal/geom"
)

// Domain maps a rectangular region of the plane onto the unit square that
// the cell hierarchy subdivides. The paper applies S2's decomposition to the
// Earth's surface; GeoBlocks datasets are regional (NYC, the contiguous US,
// the Americas), so a planar domain anchored at the dataset's bounding box
// preserves every property the algorithms use while keeping coordinates
// exact. Domain values are immutable and safe for concurrent use.
type Domain struct {
	bound geom.Rect
	// Precomputed scale factors from domain units to leaf grid units.
	scaleX, scaleY float64
}

// maxCoord is the number of leaf cells along each axis.
const maxCoord = 1 << MaxLevel

// NewDomain creates a domain over the given bounding rectangle. The
// rectangle must have positive, finite extent in both dimensions, wide
// enough that the leaf grid's scale factors are finite too.
func NewDomain(bound geom.Rect) (Domain, error) {
	d := Domain{
		bound:  bound,
		scaleX: maxCoord / bound.Width(),
		scaleY: maxCoord / bound.Height(),
	}
	for _, v := range [...]float64{bound.Width(), bound.Height(), d.scaleX, d.scaleY} {
		if !(v > 0) || math.IsInf(v, 1) {
			return Domain{}, fmt.Errorf("cellid: domain must have positive, finite extent and scale, got %v", bound)
		}
	}
	return d, nil
}

// MustDomain is NewDomain that panics on invalid input; intended for
// package-level dataset constants.
func MustDomain(bound geom.Rect) Domain {
	d, err := NewDomain(bound)
	if err != nil {
		panic(err)
	}
	return d
}

// Bound returns the rectangle the domain covers.
func (d Domain) Bound() geom.Rect { return d.bound }

// IsZero reports whether d is the zero (unconfigured) domain.
func (d Domain) IsZero() bool { return d.scaleX == 0 }

// LeafIJ maps p to leaf-level grid coordinates, clamping points outside the
// domain onto its border. Clamping mirrors the extract phase's outlier
// handling: points outside the configured region snap to the boundary and
// are typically filtered out beforehand.
func (d Domain) LeafIJ(p geom.Point) (i, j uint32) {
	i = clampCoord((p.X - d.bound.Min.X) * d.scaleX)
	j = clampCoord((p.Y - d.bound.Min.Y) * d.scaleY)
	return i, j
}

func clampCoord(f float64) uint32 {
	if f < 0 {
		return 0
	}
	if f >= maxCoord {
		return maxCoord - 1
	}
	return uint32(f)
}

// FromPoint returns the leaf cell containing p.
func (d Domain) FromPoint(p geom.Point) ID {
	i, j := d.LeafIJ(p)
	return FromIJ(i, j, MaxLevel)
}

// CellAt returns the level-cell containing p.
func (d Domain) CellAt(p geom.Point, level int) ID {
	return d.FromPoint(p).Parent(level)
}

// CellRect returns the rectangle in domain coordinates covered by id.
func (d Domain) CellRect(id ID) geom.Rect {
	i, j := id.IJ()
	return d.CellRectAt(i, j, id.Level())
}

// CellRectAt returns the rectangle covered by the level-cell with grid
// coordinates (i, j) — CellRect without the Hilbert decode, for callers
// that already track grid coordinates. Bit-identical to CellRect of the
// corresponding id.
func (d Domain) CellRectAt(i, j uint32, level int) geom.Rect {
	// Width of one cell at this level, in leaf units.
	span := uint32(1) << uint(MaxLevel-level)
	// Convert leaf units back to domain units.
	x0 := d.bound.Min.X + float64(uint64(i)*uint64(span))/maxCoord*d.bound.Width()
	y0 := d.bound.Min.Y + float64(uint64(j)*uint64(span))/maxCoord*d.bound.Height()
	x1 := d.bound.Min.X + float64(uint64(i+1)*uint64(span))/maxCoord*d.bound.Width()
	y1 := d.bound.Min.Y + float64(uint64(j+1)*uint64(span))/maxCoord*d.bound.Height()
	return geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x1, y1)}
}

// CellCenter returns the centre of id's rectangle in domain coordinates.
func (d Domain) CellCenter(id ID) geom.Point {
	return d.CellRect(id).Center()
}

// CellDiagonal returns the diagonal length of a cell at the given level, in
// domain units. This is the user-controllable error bound of a covering at
// that level (paper Sec. 3.2): every point of the covering is within one
// cell diagonal of the polygon outline.
func (d Domain) CellDiagonal(level int) float64 {
	w := d.bound.Width() / float64(uint64(1)<<uint(level))
	h := d.bound.Height() / float64(uint64(1)<<uint(level))
	return math.Hypot(w, h)
}

// MaxDiagonal returns the diagonal of the coarsest cell among cells — the
// conservative guaranteed error bound of a bare covering whose interior
// flags are unknown. It returns 0 for an empty slice.
func (d Domain) MaxDiagonal(cells []ID) float64 {
	coarsest := -1
	for _, id := range cells {
		if l := id.Level(); coarsest < 0 || l < coarsest {
			coarsest = l
		}
	}
	if coarsest < 0 {
		return 0
	}
	return d.CellDiagonal(coarsest)
}

// LevelForMaxDiagonal returns the coarsest level whose cell diagonal does
// not exceed maxDiagonal, i.e. the cheapest level meeting the user's error
// bound. It returns MaxLevel when even leaves are larger than requested.
func (d Domain) LevelForMaxDiagonal(maxDiagonal float64) int {
	for level := 0; level <= MaxLevel; level++ {
		if d.CellDiagonal(level) <= maxDiagonal {
			return level
		}
	}
	return MaxLevel
}

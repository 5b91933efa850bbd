package geom

import (
	"errors"
	"fmt"
	"math"
)

// Polygon is a simple polygon with an outer ring and zero or more hole
// rings. Rings are stored without a repeated closing vertex. The outer ring
// is normalised to counter-clockwise orientation and holes to clockwise
// orientation on construction, so downstream code can rely on winding.
//
// Query regions in GeoBlocks are arbitrary polygons of this form (paper
// Sec. 2); the region coverer approximates them with grid cells.
type Polygon struct {
	outer []Point
	holes [][]Point
	bbox  Rect
}

// ErrDegeneratePolygon is returned when a ring has fewer than three
// vertices or zero area.
var ErrDegeneratePolygon = errors.New("geom: polygon ring needs at least 3 non-collinear vertices")

// NewPolygon builds a polygon from an outer ring. The ring must contain at
// least three vertices; it is copied and normalised to counter-clockwise
// order. NewPolygon panics on degenerate input — use TryPolygon for
// validating untrusted data.
func NewPolygon(outer []Point) *Polygon {
	p, err := TryPolygon(outer)
	if err != nil {
		panic(err)
	}
	return p
}

// TryPolygon builds a polygon from an outer ring, reporting an error for
// degenerate rings instead of panicking.
func TryPolygon(outer []Point) (*Polygon, error) {
	ring, err := normalizeRing(outer, false)
	if err != nil {
		return nil, err
	}
	return &Polygon{
		outer: ring,
		bbox:  RectFromPoints(ring...),
	}, nil
}

// AddHole adds a hole ring to p. The ring is copied and normalised to
// clockwise order. Holes should lie inside the outer ring; this is the
// caller's responsibility and is not validated (matching the permissive
// handling of real-world polygon data in the paper's pipeline). A point
// is in p when it is inside the outer ring and no hole, so the part of a
// hole outside the outer ring removes nothing. A covering
// (internal/cover) still makes every cell that hole's edges meet a
// boundary cell, within its start cell over the outer ring's Bound: extra
// cells, never a missed point, so the covering's error bound holds.
func (p *Polygon) AddHole(ring []Point) error {
	h, err := normalizeRing(ring, true)
	if err != nil {
		return err
	}
	p.holes = append(p.holes, h)
	return nil
}

func normalizeRing(ring []Point, clockwise bool) ([]Point, error) {
	// Strip a repeated closing vertex if present.
	if len(ring) > 1 && ring[0] == ring[len(ring)-1] {
		ring = ring[:len(ring)-1]
	}
	if len(ring) < 3 {
		return nil, ErrDegeneratePolygon
	}
	out := make([]Point, len(ring))
	copy(out, ring)
	a := signedArea(out)
	if a == 0 {
		return nil, ErrDegeneratePolygon
	}
	if (a < 0) != clockwise {
		reverse(out)
	}
	return out, nil
}

func reverse(pts []Point) {
	for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
		pts[i], pts[j] = pts[j], pts[i]
	}
}

// signedArea returns the signed area of a ring: positive for
// counter-clockwise winding.
func signedArea(ring []Point) float64 {
	var sum float64
	for i, a := range ring {
		b := ring[(i+1)%len(ring)]
		sum += a.Cross(b)
	}
	return sum / 2
}

// Outer returns the outer ring (counter-clockwise, no closing vertex). The
// returned slice is shared; callers must not modify it.
func (p *Polygon) Outer() []Point { return p.outer }

// Holes returns the hole rings (clockwise). The returned slices are shared.
func (p *Polygon) Holes() [][]Point { return p.holes }

// Bound returns the minimal bounding rectangle of the outer ring.
func (p *Polygon) Bound() Rect { return p.bbox }

// Area returns the area of the polygon: the outer ring's area minus the
// holes' areas.
func (p *Polygon) Area() float64 {
	a := signedArea(p.outer) // positive: outer is CCW
	for _, h := range p.holes {
		a += signedArea(h) // negative: holes are CW
	}
	return a
}

// Centroid returns the area-weighted centroid of the outer ring.
func (p *Polygon) Centroid() Point {
	var cx, cy, a float64
	ring := p.outer
	for i, v := range ring {
		w := ring[(i+1)%len(ring)]
		cross := v.Cross(w)
		cx += (v.X + w.X) * cross
		cy += (v.Y + w.Y) * cross
		a += cross
	}
	if a == 0 {
		return p.bbox.Center()
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// ContainsPoint reports whether pt lies strictly inside p or on its
// boundary. Points inside a hole are not contained. The implementation uses
// the even-odd ray-casting rule with explicit boundary handling so that
// boundary points are classified deterministically as contained. Every
// side it decides is an exact OrientSign, so the answer is exact.
func (p *Polygon) ContainsPoint(pt Point) bool {
	if !p.bbox.ContainsPoint(pt) {
		return false
	}
	in, boundary := ringContains(p.outer, pt)
	if boundary {
		return true
	}
	if !in {
		return false
	}
	for _, h := range p.holes {
		hin, hb := ringContains(h, pt)
		if hb {
			return true // on a hole boundary = on the polygon boundary
		}
		if hin {
			return false
		}
	}
	return true
}

// ringContains reports whether pt is inside the ring (even-odd rule) and
// whether it lies exactly on the ring boundary. An edge is crossed when it
// spans pt.Y half-open (so a vertex is counted once) and pt lies strictly
// left of it taken upward, which is OrientSign(a, b, pt) > 0 for an
// upward edge and < 0 for a downward one; a zero sign within the edge's
// box is a point on the boundary.
func ringContains(ring []Point, pt Point) (inside, boundary bool) {
	a := ring[len(ring)-1]
	for _, b := range ring {
		spans := (a.Y > pt.Y) != (b.Y > pt.Y)
		if spans || onSegment(a, b, pt) {
			s := OrientSign(a, b, pt)
			if s == 0 && onSegment(a, b, pt) {
				return false, true
			}
			if spans && (s > 0) == (b.Y > a.Y) {
				inside = !inside
			}
		}
		a = b
	}
	return inside, false
}

func ringIntersectsRect(ring []Point, r Rect) bool {
	n := len(ring)
	j := n - 1
	for i := 0; i < n; i++ {
		if SegmentIntersectsRect(ring[j], ring[i], r) {
			return true
		}
		j = i
	}
	return false
}

// containsRect reports whether the closed rectangle r lies inside p,
// holes excluded. It is the covering's interior rule (internal/cover)
// over the whole ring: when no ring edge meets r, the boundary misses the
// connected set r, so r lies wholly inside or wholly outside p and r.Min
// decides. A hole inside r has its edges inside r, so the first step
// catches it. Both facts are exact, on OrientSign.
func (p *Polygon) containsRect(r Rect) bool {
	if ringIntersectsRect(p.outer, r) {
		return false
	}
	for _, h := range p.holes {
		if ringIntersectsRect(h, r) {
			return false
		}
	}
	return p.ContainsPoint(r.Min)
}

// String implements fmt.Stringer.
func (p *Polygon) String() string {
	return fmt.Sprintf("Polygon(%d vertices, %d holes, bbox %v)", len(p.outer), len(p.holes), p.bbox)
}

// InteriorRect returns an approximation of the largest axis-aligned
// rectangle fully contained in p. The paper's PH-tree and aR-tree baselines
// only support rectangular query regions and are therefore queried with the
// polygon's interior rectangle (paper Sec. 4.1); this function provides that
// rectangle.
//
// The approximation rasterises the polygon onto a res × res grid over its
// bounding box, marks fully-interior grid cells, and finds the maximum-area
// rectangle of interior cells with the classic histogram-stack algorithm.
// The result is exact up to grid resolution and always contained in p.
// It returns an invalid Rect when no interior rectangle exists at this
// resolution (e.g. a sliver polygon).
func (p *Polygon) InteriorRect(res int) Rect {
	if res < 2 {
		res = 2
	}
	bb := p.bbox
	if bb.Width() <= 0 || bb.Height() <= 0 {
		return Rect{Min: Point{1, 1}, Max: Point{0, 0}} // invalid
	}
	cw := bb.Width() / float64(res)
	ch := bb.Height() / float64(res)

	interior := make([]bool, res*res)
	for gy := 0; gy < res; gy++ {
		for gx := 0; gx < res; gx++ {
			cell := Rect{
				Min: Point{bb.Min.X + float64(gx)*cw, bb.Min.Y + float64(gy)*ch},
				Max: Point{bb.Min.X + float64(gx+1)*cw, bb.Min.Y + float64(gy+1)*ch},
			}
			interior[gy*res+gx] = p.containsRect(cell)
		}
	}

	// Maximal rectangle in a binary matrix via per-row histograms.
	heights := make([]int, res)
	bestArea := 0
	var best struct{ x0, y0, x1, y1 int } // cell index bounds, inclusive-exclusive
	type stackEntry struct{ start, height int }
	stack := make([]stackEntry, 0, res+1)
	for gy := 0; gy < res; gy++ {
		for gx := 0; gx < res; gx++ {
			if interior[gy*res+gx] {
				heights[gx]++
			} else {
				heights[gx] = 0
			}
		}
		stack = stack[:0]
		for gx := 0; gx <= res; gx++ {
			h := 0
			if gx < res {
				h = heights[gx]
			}
			start := gx
			for len(stack) > 0 && stack[len(stack)-1].height > h {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				area := top.height * (gx - top.start)
				if area > bestArea {
					bestArea = area
					best.x0, best.x1 = top.start, gx
					best.y0, best.y1 = gy+1-top.height, gy+1
				}
				start = top.start
			}
			if len(stack) == 0 || stack[len(stack)-1].height < h {
				stack = append(stack, stackEntry{start, h})
			}
		}
	}
	if bestArea == 0 {
		return Rect{Min: Point{1, 1}, Max: Point{0, 0}} // invalid
	}
	return Rect{
		Min: Point{bb.Min.X + float64(best.x0)*cw, bb.Min.Y + float64(best.y0)*ch},
		Max: Point{bb.Min.X + float64(best.x1)*cw, bb.Min.Y + float64(best.y1)*ch},
	}
}

// RegularPolygon returns a convex polygon with n vertices approximating a
// circle of the given radius around center. It is used by tests and by the
// synthetic workload generators.
func RegularPolygon(center Point, radius float64, n int) *Polygon {
	if n < 3 {
		n = 3
	}
	pts := make([]Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Point{center.X + radius*math.Cos(a), center.Y + radius*math.Sin(a)}
	}
	return NewPolygon(pts)
}

// Package cover computes cell coverings of query polygons (paper Sec. 3.1
// and 3.2): error-bounded approximations of a polygon by a set of cells,
// possibly at mixed levels. The covering is the only source of approximation
// error in GeoBlocks; every cell that intersects the polygon outline even
// minimally is included, so the covering can only add false positives, and
// every covering point lies within one cell diagonal of the polygon outline.
//
// The algorithm mirrors S2's RegionCoverer: a coarsest-first refinement
// that starts from the smallest ancestor cell enclosing the polygon's
// bounding box, keeps cells fully contained in the polygon, and subdivides
// boundary cells until the maximum level or the cell budget is reached.
package cover

import (
	"cmp"
	"fmt"
	"slices"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// Region is the geometric interface the coverer consumes. Both
// *geom.Polygon and rectRegion satisfy it.
type Region interface {
	// Bound returns the region's bounding rectangle.
	Bound() geom.Rect
	// IntersectsRect reports whether the region intersects r.
	IntersectsRect(r geom.Rect) bool
	// ContainsRect reports whether the region fully contains r.
	ContainsRect(r geom.Rect) bool
}

// RectClassifier is an optional Region refinement: a single call that
// returns the full disjoint/intersects/contains relation. Regions that
// implement it (geom.Polygon does) pay one geometry pass per cell instead
// of the IntersectsRect + ContainsRect pair; the result must be exactly
// equivalent to the pair, which is what keeps coverings byte-identical
// whichever path classified them.
type RectClassifier interface {
	ClassifyRect(r geom.Rect) geom.RectRelation
}

// classifyRect classifies rect against region through the fused fast path
// when available, falling back to the two-predicate protocol.
func classifyRect(region Region, rect geom.Rect) geom.RectRelation {
	if rc, ok := region.(RectClassifier); ok {
		return rc.ClassifyRect(rect)
	}
	if !region.IntersectsRect(rect) {
		return geom.RectDisjoint
	}
	if region.ContainsRect(rect) {
		return geom.RectContains
	}
	return geom.RectIntersects
}

// rectRegion adapts geom.Rect to Region so rectangular queries (paper
// Fig. 15) reuse the same covering machinery — "rectangles are just
// constrained polygons".
type rectRegion struct{ r geom.Rect }

func (rr rectRegion) Bound() geom.Rect                { return rr.r }
func (rr rectRegion) IntersectsRect(o geom.Rect) bool { return rr.r.Intersects(o) }
func (rr rectRegion) ContainsRect(o geom.Rect) bool   { return rr.r.ContainsRect(o) }
func (rr rectRegion) ClassifyRect(o geom.Rect) geom.RectRelation {
	if rr.r.ContainsRect(o) {
		return geom.RectContains
	}
	if rr.r.Intersects(o) {
		return geom.RectIntersects
	}
	return geom.RectDisjoint
}

// RectRegion wraps a rectangle as a coverable region.
func RectRegion(r geom.Rect) Region { return rectRegion{r} }

// Options configure the coverer. The zero value is not usable; call
// DefaultOptions and adjust.
type Options struct {
	// MaxLevel bounds the finest cells used. For GeoBlocks queries this is
	// the block level: coverings must not contain cells smaller than the
	// grid cells (paper Sec. 3.5).
	MaxLevel int
	// MinLevel bounds the coarsest cells used. Zero allows the root.
	MinLevel int
	// MaxCells soft-bounds the covering size. Once the budget is
	// exhausted, remaining boundary cells are emitted unrefined. More
	// cells means a tighter approximation but a more expensive query.
	MaxCells int
}

// DefaultOptions returns the coverer configuration used throughout the
// benchmarks: mixed-level coverings of at most 2048 cells down to the
// given block level. The budget is generous enough that typical query
// polygons refine their whole boundary to the block level; tighter budgets
// trade approximation error for covering (and query) cost.
func DefaultOptions(maxLevel int) Options {
	return Options{MaxLevel: maxLevel, MinLevel: 0, MaxCells: 2048}
}

func (o Options) validate() error {
	if o.MaxLevel < 0 || o.MaxLevel > cellid.MaxLevel {
		return fmt.Errorf("cover: MaxLevel %d out of range [0,%d]", o.MaxLevel, cellid.MaxLevel)
	}
	if o.MinLevel < 0 || o.MinLevel > o.MaxLevel {
		return fmt.Errorf("cover: MinLevel %d out of range [0,%d]", o.MinLevel, o.MaxLevel)
	}
	if o.MaxCells < 1 {
		return fmt.Errorf("cover: MaxCells must be positive, got %d", o.MaxCells)
	}
	return nil
}

// Covering is a set of cells approximating a region, sorted by id. Cells
// are non-overlapping (no cell contains another).
type Covering struct {
	// Cells in ascending id order.
	Cells []cellid.ID
	// Interior marks, per cell, whether the cell is fully contained in the
	// region (true) or merely intersects its boundary (false). Interior
	// cells contribute no approximation error.
	Interior []bool
}

// Len returns the number of cells.
func (c *Covering) Len() int { return len(c.Cells) }

// Coverer computes coverings over a fixed domain.
type Coverer struct {
	dom  cellid.Domain
	opts Options
}

// NewCoverer creates a coverer for the given domain and options.
func NewCoverer(dom cellid.Domain, opts Options) (*Coverer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dom.IsZero() {
		return nil, fmt.Errorf("cover: zero domain")
	}
	return &Coverer{dom: dom, opts: opts}, nil
}

// MustCoverer is NewCoverer that panics on error.
func MustCoverer(dom cellid.Domain, opts Options) *Coverer {
	c, err := NewCoverer(dom, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Options returns the coverer's configuration.
func (c *Coverer) Options() Options { return c.opts }

// Domain returns the coverer's domain.
func (c *Coverer) Domain() cellid.Domain { return c.dom }

// Cover computes a covering of region. The covering satisfies:
//
//   - every point of the region lies in some covering cell;
//   - no covering cell is below MaxLevel or above MinLevel;
//   - cells are disjoint and sorted ascending;
//   - cells marked Interior are fully inside the region.
func (c *Coverer) Cover(region Region) *Covering {
	// Intersection returns an invalid rect when the region's bound and the
	// domain do not overlap — the only empty-covering case.
	bb := region.Bound().Intersection(c.dom.Bound())
	out := &Covering{}
	if !bb.IsValid() {
		return out
	}

	start := c.enclosingCell(bb)
	if start.Level() < c.opts.MinLevel {
		// Seed with all MinLevel descendants that intersect the region
		// instead of one giant cell, so MinLevel is respected.
		c.seedAtLevel(region, start, c.opts.MinLevel, out)
		return c.finish(out)
	}

	// Refinement is coarsest-first so the cell budget goes to the big
	// boundary cells first. Children are one level finer than their parent
	// and children of ascending disjoint parents ascend, so "coarsest
	// first, then by id" is a level-order walk over two frontier slices.
	frontier, next := []cellid.ID{start}, []cellid.ID(nil)
	for level := start.Level(); len(frontier) > 0; level++ {
		for i, id := range frontier {
			rel := classifyRect(region, c.dom.CellRect(id))
			if rel == geom.RectDisjoint {
				continue
			}
			contained := rel == geom.RectContains
			// Budget check: the four children plus whatever is pending or
			// emitted must stay within MaxCells, otherwise emit as-is.
			pending := len(frontier) - i - 1 + len(next)
			if level >= c.opts.MinLevel && (contained || level >= c.opts.MaxLevel ||
				len(out.Cells)+pending+4 > c.opts.MaxCells) {
				out.Cells = append(out.Cells, id)
				out.Interior = append(out.Interior, contained)
				continue
			}
			children := id.Children()
			next = append(next, children[:]...)
		}
		frontier, next = next, frontier[:0]
	}
	return c.finish(out)
}

// seedAtLevel emits all descendants of start at the given level that
// intersect the region. Used when the enclosing cell is coarser than
// MinLevel.
func (c *Coverer) seedAtLevel(region Region, start cellid.ID, level int, out *Covering) {
	begin := start.ChildBeginAt(level)
	end := start.ChildEndAt(level)
	for id := begin; ; id = id.Next() {
		rect := c.dom.CellRect(id)
		if rel := classifyRect(region, rect); rel != geom.RectDisjoint {
			out.Cells = append(out.Cells, id)
			out.Interior = append(out.Interior, rel == geom.RectContains)
		}
		if id == end {
			break
		}
	}
}

func (c *Coverer) finish(out *Covering) *Covering {
	// Sort by id, carrying the interior flags along.
	idx := make([]int, len(out.Cells))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Compare(out.Cells[a], out.Cells[b])
	})
	cells := make([]cellid.ID, len(idx))
	interior := make([]bool, len(idx))
	for i, j := range idx {
		cells[i] = out.Cells[j]
		interior[i] = out.Interior[j]
	}
	out.Cells = cells
	out.Interior = interior
	return out
}

// enclosingCell returns the smallest single cell whose rectangle contains
// bb — the covering seed.
func (c *Coverer) enclosingCell(bb geom.Rect) cellid.ID {
	lo := c.dom.FromPoint(bb.Min)
	hi := c.dom.FromPoint(bb.Max)
	lvl, ok := lo.CommonAncestorLevel(hi)
	if !ok {
		return cellid.Root()
	}
	return lo.Parent(lvl)
}

// FixedLevelCover returns the covering of region consisting solely of
// cells at the given level — the grid-cell representation in Fig. 6c. It is
// equivalent to Cover with MinLevel = MaxLevel = level but uses a direct
// recursive walk.
func (c *Coverer) FixedLevelCover(region Region, level int) []cellid.ID {
	var out []cellid.ID
	var walk func(id cellid.ID)
	walk = func(id cellid.ID) {
		rect := c.dom.CellRect(id)
		if id.Level() == level {
			// Leaf: only the intersection test matters, skip the fused
			// classification's containment work.
			if region.IntersectsRect(rect) {
				out = append(out, id)
			}
			return
		}
		rel := classifyRect(region, rect)
		if rel == geom.RectDisjoint {
			return
		}
		if rel == geom.RectContains {
			// Whole subtree qualifies: enumerate children at target level.
			begin := id.ChildBeginAt(level)
			end := id.ChildEndAt(level)
			for child := begin; ; child = child.Next() {
				out = append(out, child)
				if child == end {
					break
				}
			}
			return
		}
		for _, child := range id.Children() {
			walk(child)
		}
	}
	start := c.enclosingCell(region.Bound().Intersection(c.dom.Bound()))
	if start.Level() > level {
		start = start.Parent(level)
	}
	walk(start)
	slices.SortFunc(out, func(a, b cellid.ID) int { return cmp.Compare(a, b) })
	return out
}

// CoverRect is shorthand for Cover on a rectangle.
func (c *Coverer) CoverRect(r geom.Rect) *Covering { return c.Cover(RectRegion(r)) }

// GuaranteedErrorDistance returns the covering's guaranteed spatial error
// bound: the diagonal of the coarsest boundary (non-interior) cell.
// Interior cells are fully contained in the region and contribute no
// approximation error; every point of a boundary cell lies within that
// cell's diagonal of the region, so the coarsest boundary diagonal bounds
// the distance of any covered false positive from the region. It returns 0
// for an empty or all-interior covering — such answers are exact.
//
// Unlike MaxErrorDistance below this is a sound per-query bound even when
// the MaxCells budget truncated refinement and left coarse boundary cells.
func (c *Coverer) GuaranteedErrorDistance(cov *Covering) float64 {
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
		return 0
	}
	return c.dom.CellDiagonal(coarsest)
}

// MaxErrorDistance returns the covering's worst-case distance bound: the
// diagonal of a cell at the covering's finest level (paper Sec. 3.2). It
// returns 0 for an empty covering.
func (c *Coverer) MaxErrorDistance(cov *Covering) float64 {
	finest := -1
	for _, id := range cov.Cells {
		if l := id.Level(); l > finest {
			finest = l
		}
	}
	if finest < 0 {
		return 0
	}
	return c.dom.CellDiagonal(finest)
}

// AreaError returns the covering's area-based overshoot: covering area
// minus region area, as a fraction of region area. Interior cells
// contribute no error, so only boundary cells are measured.
func (c *Coverer) AreaError(region Region, cov *Covering) float64 {
	regionArea := 0.0
	if p, ok := region.(*geom.Polygon); ok {
		regionArea = p.Area()
	} else {
		regionArea = region.Bound().Area()
	}
	if regionArea <= 0 {
		return 0
	}
	coverArea := 0.0
	for _, id := range cov.Cells {
		coverArea += c.dom.CellRect(id).Area()
	}
	return (coverArea - regionArea) / regionArea
}

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
//
// Like S2 over its shape index, the walk classifies a polygon cell against
// the ring edges that touch it, not the whole ring: a cell is a boundary
// cell iff one of its parent's edges meets it, those edges become its
// children's list, and only a cell that no edge meets pays one
// point-in-polygon test to tell interior from exterior (classifier, below).
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
	// ClassifyRect returns the relation of the closed rectangle r to the
	// region.
	ClassifyRect(r geom.Rect) geom.RectRelation
}

// edge is one ring edge of a polygon region, a→b in ring order, with its
// bounding box.
type edge struct {
	a, b geom.Point
	bb   geom.Rect
}

// classifier classifies the cells of one region's covering walk. For a
// polygon it applies geom.Polygon.ClassifyRect's two steps — some ring
// edge meets the cell ? RectIntersects : the cell's Min corner decides
// RectContains or RectDisjoint — to an edge list per cell. A cell's list
// holds every edge that can meet it: a child's rectangle lies inside its
// parent's, so the edges that met the parent are the child's list. Lists
// are indices into edges, kept in backing arrays the walk owns. Any other
// region classifies through its own ClassifyRect and leaves lists empty.
type classifier struct {
	region Region
	poly   *geom.Polygon // nil for non-polygon regions
	edges  []edge
}

func newClassifier(region Region) classifier {
	k := classifier{region: region}
	p, ok := region.(*geom.Polygon)
	if !ok {
		return k
	}
	k.poly = p
	n := len(p.Outer())
	for _, h := range p.Holes() {
		n += len(h)
	}
	k.edges = make([]edge, 0, n)
	k.addRing(p.Outer())
	for _, h := range p.Holes() {
		k.addRing(h)
	}
	return k
}

// addRing appends ring's edges in the order geom's ring walks use, closing
// edge first.
func (k *classifier) addRing(ring []geom.Point) {
	a := ring[len(ring)-1]
	for _, b := range ring {
		k.edges = append(k.edges, edge{a: a, b: b, bb: geom.RectFromPoints(a, b)})
		a = b
	}
}

// appendAll appends the list of every edge to buf: the list of a cell
// whose parent was not classified.
func (k *classifier) appendAll(buf []int32) []int32 {
	for i := range k.edges {
		buf = append(buf, int32(i))
	}
	return buf
}

// classify returns rect's relation to the region. It tests only the edges
// in list, which must include every edge that meets rect, and appends the
// ones that do meet it to *out: the list of rect's children.
func (k *classifier) classify(rect geom.Rect, list []int32, out *[]int32) geom.RectRelation {
	if k.poly == nil {
		return k.region.ClassifyRect(rect)
	}
	n := len(*out)
	for _, e := range list {
		// The box test is exact and rejects most edges before the
		// segment test's orientation arithmetic.
		if ed := &k.edges[e]; ed.bb.Intersects(rect) && geom.SegmentIntersectsRect(ed.a, ed.b, rect) {
			*out = append(*out, e)
		}
	}
	switch {
	case len(*out) > n:
		return geom.RectIntersects
	case k.poly.ContainsPoint(rect.Min):
		return geom.RectContains
	default:
		return geom.RectDisjoint
	}
}

// rectRegion adapts geom.Rect to Region so rectangular queries (paper
// Fig. 15) reuse the same covering machinery — "rectangles are just
// constrained polygons". Its classification is O(1), so it carries no
// edges.
type rectRegion struct{ r geom.Rect }

func (rr rectRegion) Bound() geom.Rect { return rr.r }
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

	k := newClassifier(region)
	start := c.enclosingCell(bb)
	if start.Level() < c.opts.MinLevel {
		// Seed with all MinLevel descendants that intersect the region
		// instead of one giant cell, so MinLevel is respected.
		c.seedAtLevel(&k, start, c.opts.MinLevel, out)
		return c.finish(out)
	}

	// Refinement is coarsest-first so the cell budget goes to the big
	// boundary cells first. Children are one level finer than their parent
	// and children of ascending disjoint parents ascend, so "coarsest
	// first, then by id" is a level-order walk over two frontier slices.
	// A frontier cell's edge list is lists[lo:hi]; the lists of the next
	// level are filled into nextLists while this level is classified.
	type cell struct {
		id     cellid.ID
		lo, hi int32
	}
	lists := k.appendAll(nil)
	frontier, next := []cell{{start, 0, int32(len(lists))}}, []cell(nil)
	var nextLists []int32
	for level := start.Level(); len(frontier) > 0; level++ {
		for i, f := range frontier {
			n := len(nextLists)
			rel := k.classify(c.dom.CellRect(f.id), lists[f.lo:f.hi], &nextLists)
			if rel == geom.RectDisjoint {
				continue
			}
			contained := rel == geom.RectContains
			// Budget check: the four children plus whatever is pending or
			// emitted must stay within MaxCells, otherwise emit as-is.
			pending := len(frontier) - i - 1 + len(next)
			if level >= c.opts.MinLevel && (contained || level >= c.opts.MaxLevel ||
				len(out.Cells)+pending+4 > c.opts.MaxCells) {
				out.Cells = append(out.Cells, f.id)
				out.Interior = append(out.Interior, contained)
				nextLists = nextLists[:n]
				continue
			}
			lo, hi := int32(n), int32(len(nextLists))
			for _, child := range f.id.Children() {
				next = append(next, cell{child, lo, hi})
			}
		}
		frontier, next = next, frontier[:0]
		lists, nextLists = nextLists, lists[:0]
	}
	return c.finish(out)
}

// seedAtLevel emits all descendants of start at the given level that
// intersect the region. Used when the enclosing cell is coarser than
// MinLevel.
func (c *Coverer) seedAtLevel(k *classifier, start cellid.ID, level int, out *Covering) {
	all := k.appendAll(nil)
	var hits []int32
	begin := start.ChildBeginAt(level)
	end := start.ChildEndAt(level)
	for id := begin; ; id = id.Next() {
		hits = hits[:0]
		if rel := k.classify(c.dom.CellRect(id), all, &hits); rel != geom.RectDisjoint {
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

// CoverRect is shorthand for Cover on a rectangle.
func (c *Coverer) CoverRect(r geom.Rect) *Covering { return c.Cover(RectRegion(r)) }

// GuaranteedErrorDistance returns the covering's guaranteed spatial error
// bound: the diagonal of the coarsest boundary (non-interior) cell.
// Interior cells are fully contained in the region and contribute no
// approximation error; every point of a boundary cell lies within that
// cell's diagonal of the region, so the coarsest boundary diagonal bounds
// the distance of any covered false positive from the region. It returns 0
// for an empty or all-interior covering — such answers are exact. The
// bound stays sound when the MaxCells budget truncated refinement and left
// coarse boundary cells.
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

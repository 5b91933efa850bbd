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
// cell iff one of its parent's edges meets it, and those edges become its
// children's list. A cell that no edge meets is interior or exterior as a
// point carried down the walk is: the corner it shares with its siblings,
// whose inside/outside bits follow from the parent's corner by counting
// edge crossings (S2's "contains centre" bit). In the level-order walk a
// point-in-polygon test over every edge is left only where the carried
// bits cannot decide: the start cell and its centre, a centre whose
// crossing count meets a zero sign, and the centre of every subdivided
// cell of a polygon with more rings than a ring mask holds, which asks
// ContainsPoint. This is the only rule that classifies a polygon cell.
// Every sign is exact (geom.OrientSign), so a cell the covering calls
// interior or disjoint is interior or disjoint: the error bound of paper
// Sec. 3.2 holds without a rounding caveat.
//
// The walk is level order and never decodes a Hilbert id: each subdivided
// cell carries its grid coordinates and curve orientation
// (cellid.Cursor), from which its children follow directly, and its
// rectangle and centre, whose coordinates are its children's. Every level
// emits one ascending run of cells, so the covering is sorted by merging
// those runs, not by a comparison sort. The walk's scratch slices come
// from a pool and only the returned Covering is allocated.
package cover

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// Region is what the coverer covers: a *geom.Polygon, whose cells the
// walk classifies against its ring edges, or a region from this package
// (RectRegion), which classifies a rectangle itself. Cover panics on any
// other type.
type Region interface {
	// Bound returns the region's bounding rectangle.
	Bound() geom.Rect
}

// rectClassifier is a Region that is not a polygon.
type rectClassifier interface {
	// classifyRect returns the relation of the closed rectangle r to the
	// region.
	classifyRect(r geom.Rect) relation
}

// relation is a closed rectangle's relation to a region.
type relation int

const (
	disjoint relation = iota // no point in common
	boundary                 // overlaps the region, not wholly inside
	interior                 // wholly inside the region
)

// edge is one ring edge of a polygon region, a→b in ring order, with its
// bounding box and its ring's bit in a ring mask (0 in a polygon with more
// rings than a mask holds).
type edge struct {
	a, b geom.Point
	bb   geom.Rect
	bit  uint32
}

// A ring mask holds one bit per ring of a point's position: bit 0 is set
// when the point is inside the outer ring, bit h when it is inside hole
// h, each by the even-odd rule. The point is inside the polygon when the
// mask is exactly insideMask — inside the outer ring and no hole, which is
// ContainsPoint's rule; one even-odd bit over all rings is not, as holes
// need not lie inside the outer ring or apart from each other. A polygon
// with more rings than maskRings carries canonical masks instead, 0 or
// insideMask from ContainsPoint. unknownMask, never a ring mask, marks a
// cell whose parent's centre was not computed.
const (
	maskRings   = 31
	insideMask  = uint32(1)
	unknownMask = uint32(1) << maskRings
)

// classifier classifies the cells of one region's covering walk. For a
// polygon it takes two steps over an edge list per cell: some ring edge
// meets the cell ? boundary : the cell lies wholly inside or wholly
// outside, as any one point of it does. A cell's list holds every
// edge that can meet it: a child's rectangle lies inside its parent's, so
// the edges that met the parent are the child's list. Lists are indices
// into edges, kept in backing arrays the walk owns.
//
// In the level-order walk the second step mostly costs no ring walk. A
// cell's four children share one corner, their parent's centre, and the
// walk keeps that corner's ring mask with the parent (group, below). A
// cell no edge meets lies on the side of the polygon that corner does.
// When a cell subdivides, its own centre's mask follows from the carried one by
// counting the proper crossings of the segment from the corner to the
// centre with the cell's edge list: the segment lies in the closed cell,
// so no other edge can cross it. Every sign is exact (geom.OrientSign).
// The ring walk over all edges (maskAt) remains for a zero sign, a point
// on that segment's line; for the start cell, which has no carried
// corner (unknownMask); and for every centre of a polygon with more rings
// than maskRings, whose masks come from ContainsPoint. Any other region
// classifies through its own classifyRect and leaves lists empty.
type classifier struct {
	poly   *geom.Polygon  // nil for other regions
	other  rectClassifier // nil for a polygon
	edges  []edge
	direct bool // more rings than maskRings: masks come from ContainsPoint
}

// newClassifier builds region's classifier, appending its edges to buf.
func newClassifier(region Region, buf []edge) classifier {
	p, ok := region.(*geom.Polygon)
	if !ok {
		return classifier{other: region.(rectClassifier), edges: buf}
	}
	k := classifier{poly: p, edges: buf}
	k.direct = 1+len(p.Holes()) > maskRings
	n := len(p.Outer())
	for _, h := range p.Holes() {
		n += len(h)
	}
	k.edges = slices.Grow(k.edges, n)
	k.addRing(p.Outer(), 0)
	for i, h := range p.Holes() {
		k.addRing(h, i+1)
	}
	return k
}

// addRing appends ring's edges in the order geom's ring walks use, closing
// edge first.
func (k *classifier) addRing(ring []geom.Point, r int) {
	var bit uint32
	if !k.direct {
		bit = 1 << r
	}
	a := ring[len(ring)-1]
	for _, b := range ring {
		k.edges = append(k.edges, edge{a: a, b: b, bb: geom.RectFromPoints(a, b), bit: bit})
		a = b
	}
}

// appendAll appends the list of every edge to buf: the start cell's list.
func (k *classifier) appendAll(buf []int32) []int32 {
	for i := range k.edges {
		buf = append(buf, int32(i))
	}
	return buf
}

// classify returns rect's relation to the region. It tests only the edges
// in list, which must include every edge that meets rect, and appends the
// ones that do meet it to *out: the list of rect's children. in is the
// ring mask of a corner of rect, or unknownMask.
func (k *classifier) classify(rect geom.Rect, list []int32, out *[]int32, in uint32) relation {
	if k.poly == nil {
		return k.other.classifyRect(rect)
	}
	n := len(*out)
	for _, e := range list {
		// The box test is exact and rejects most edges before the
		// segment test's orientation arithmetic.
		if ed := &k.edges[e]; ed.bb.Intersects(rect) && geom.SegmentIntersectsRect(ed.a, ed.b, rect) {
			*out = append(*out, e)
		}
	}
	if len(*out) > n {
		return boundary
	}
	// No edge meets rect, so no point of it is on the boundary and any
	// point decides.
	if in == unknownMask {
		in = k.maskAt(rect.Min)
	}
	if in == insideMask {
		return interior
	}
	return disjoint
}

// centreMask returns the ring mask of m, the centre of the closed cell
// rect, given in, the mask of p, a corner of rect. Exactly the edges in
// list meet rect. If p is on the boundary, in means nothing, but then an
// edge through p is in list and a sign below is zero.
func (k *classifier) centreMask(p, m geom.Point, rect geom.Rect, in uint32, list []int32) uint32 {
	if in == unknownMask || k.direct {
		return k.maskAt(m)
	}
	lo, hi := p, m
	if lo.X > hi.X {
		lo.X, hi.X = hi.X, lo.X
	}
	if lo.Y > hi.Y {
		lo.Y, hi.Y = hi.Y, lo.Y
	}
	for _, e := range list {
		ed := &k.edges[e]
		if ed.bb.Max.X < lo.X || ed.bb.Min.X > hi.X || ed.bb.Max.Y < lo.Y || ed.bb.Min.Y > hi.Y {
			continue
		}
		// An edge that meets the cell usually runs well past it, so the
		// ends of pm falling on one side of its line rejects it first.
		sp, sm := geom.OrientSign(ed.a, ed.b, p), geom.OrientSign(ed.a, ed.b, m)
		if sp == 0 || sm == 0 {
			return k.maskAt(m)
		}
		if sp == sm {
			continue
		}
		// With both ends outside the cell the edge is a chord of it, so
		// p and m on either side of its line are on either side of it.
		if !rect.ContainsPoint(ed.a) && !rect.ContainsPoint(ed.b) {
			in ^= ed.bit
			continue
		}
		sa, sb := geom.OrientSign(p, m, ed.a), geom.OrientSign(p, m, ed.b)
		if sa == 0 || sb == 0 {
			return k.maskAt(m)
		}
		if sa != sb {
			in ^= ed.bit
		}
	}
	return in
}

// maskAt returns pt's ring mask from every edge: geom.Polygon.ContainsPoint's
// half-open crossing rule per ring. For a point on the boundary the mask
// means nothing; no caller decides a cell by one.
func (k *classifier) maskAt(pt geom.Point) uint32 {
	if k.direct {
		if k.poly.ContainsPoint(pt) {
			return insideMask
		}
		return 0
	}
	var in uint32
	for i := range k.edges {
		e := &k.edges[i]
		if (e.a.Y > pt.Y) == (e.b.Y > pt.Y) {
			continue
		}
		if s := geom.OrientSign(e.a, e.b, pt); s != 0 && (s > 0) == (e.b.Y > e.a.Y) {
			in ^= e.bit
		}
	}
	return in
}

// rectRegion adapts geom.Rect to Region so rectangular queries (paper
// Fig. 15) reuse the same covering machinery — "rectangles are just
// constrained polygons". Its classification is O(1), so it carries no
// edges.
type rectRegion struct{ r geom.Rect }

func (rr rectRegion) Bound() geom.Rect { return rr.r }
func (rr rectRegion) classifyRect(o geom.Rect) relation {
	if rr.r.ContainsRect(o) {
		return interior
	}
	if rr.r.Intersects(o) {
		return boundary
	}
	return disjoint
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
	return Options{MaxLevel: maxLevel, MaxCells: 2048}
}

func (o Options) validate() error {
	if o.MaxLevel < 0 || o.MaxLevel > cellid.MaxLevel {
		return fmt.Errorf("cover: MaxLevel %d out of range [0,%d]", o.MaxLevel, cellid.MaxLevel)
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

// Domain returns the coverer's domain.
func (c *Coverer) Domain() cellid.Domain { return c.dom }

// Cover computes a covering of region. The covering satisfies:
//
//   - every point of the region lies in some covering cell;
//   - no covering cell is finer than MaxLevel;
//   - cells are disjoint and sorted ascending;
//   - cells marked Interior are fully inside the region.
//
// Cover is safe for concurrent use; its scratch comes from a pool, and
// the returned Covering owns its slices.
func (c *Coverer) Cover(region Region) *Covering {
	// Intersection returns an invalid rect when the region's bound and the
	// domain do not overlap — the only empty-covering case.
	bb := region.Bound().Intersection(c.dom.Bound())
	if !bb.IsValid() {
		return &Covering{}
	}

	w := walkPool.Get().(*walk)
	w.c, w.k = c, newClassifier(region, w.k.edges[:0])
	w.walkLevels(c.enclosingCell(bb))
	cov := w.covering()
	w.release()
	return cov
}

// walk is one Cover call: the coverer and the region's classifier, and
// the scratch — the classifier's edges, the level-order walk's frontier
// and edge-list arrays, the emitted cells with the bounds of their
// ascending runs, and the merge buffer. Cover takes it from walkPool and
// copies the result out before putting it back, so no pooled memory
// escapes into a Covering.
type walk struct {
	c                *Coverer
	k                classifier
	level            int // the level of the cells visited
	frontier, next   []group
	lists, nextLists []int32
	out, merged      []emitted
	runs             []int
}

// group is a subdivided cell, whose four children are the frontier of the
// next level: its cursor, its rectangle and centre, from which the
// children's rectangles follow, their edge list lists[lo:hi], and the ring
// mask of the centre, the corner the children share.
type group struct {
	cellid.Cursor
	rect   geom.Rect
	mid    geom.Point
	lo, hi int32
	in     uint32
}

// childRect returns the rectangle of kid, one of g's children. Each of its
// coordinates is one of g's or g's centre, which CellRectAt computes from
// the same leaf integer, so it is bit-identical to kid's CellRectAt.
func (g *group) childRect(kid cellid.Cursor) geom.Rect {
	r := geom.Rect{Min: g.rect.Min, Max: g.mid}
	if kid.I&1 != 0 {
		r.Min.X, r.Max.X = g.mid.X, g.rect.Max.X
	}
	if kid.J&1 != 0 {
		r.Min.Y, r.Max.Y = g.mid.Y, g.rect.Max.Y
	}
	return r
}

// emitted is a covering cell with its Interior flag.
type emitted struct {
	id       cellid.ID
	interior bool
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// maxPooledLen is the longest scratch slice a walk may hold and still go
// back to the pool, so one giant polygon does not pin its memory.
const maxPooledLen = 1 << 14

func (w *walk) release() {
	w.c, w.k.poly, w.k.other = nil, nil, nil
	if max(cap(w.k.edges), cap(w.frontier), cap(w.next), cap(w.lists), cap(w.nextLists),
		cap(w.out), cap(w.merged), cap(w.runs)) <= maxPooledLen {
		walkPool.Put(w)
	}
}

// walkLevels refines from start coarsest-first, so the cell budget goes to
// the big boundary cells first. Children are one level finer than their
// parent and children of ascending disjoint parents ascend, so "coarsest
// first, then by id" is a level-order walk over two frontier slices of
// subdivided cells, and each level emits one ascending run. A frontier
// entry carries its grid coordinates and Hilbert orientation, so no cell
// id is decoded. Its children's edge list is lists[lo:hi]; the lists of
// the next level are filled into nextLists while this level is
// classified.
func (w *walk) walkLevels(start cellid.ID) {
	w.level = start.Level()
	w.lists = w.k.appendAll(w.lists[:0])
	w.frontier, w.next, w.nextLists = w.frontier[:0], w.next[:0], w.nextLists[:0]
	w.out, w.runs = w.out[:0], append(w.runs[:0], 0)
	s := cellid.NewCursor(start)
	w.visit(&s, w.c.dom.CellRectAt(s.I, s.J, w.level), w.lists, unknownMask, geom.Point{}, 0)
	for {
		if len(w.out) > w.runs[len(w.runs)-1] {
			w.runs = append(w.runs, len(w.out))
		}
		w.frontier, w.next = w.next, w.frontier[:0]
		w.lists, w.nextLists = w.nextLists, w.lists[:0]
		if len(w.frontier) == 0 {
			break
		}
		w.level++
		for gi := range w.frontier {
			g := &w.frontier[gi]
			list := w.lists[g.lo:g.hi]
			kids := g.Children()
			for ci := range kids {
				// The cells after this one at this level, then the
				// children already queued for the next.
				pending := 4*(len(w.frontier)-gi-1) + 3 - ci + 4*len(w.next)
				w.visit(&kids[ci], g.childRect(kids[ci]), list, g.in, g.mid, pending)
			}
		}
	}
}

// visit classifies f, a cell at w.level with rectangle rect, against the
// edges in list; in is the ring mask of its corner p, or unknownMask. A
// disjoint cell is dropped. A contained cell, a cell at MaxLevel, and a
// cell whose four children would not fit in MaxCells beside the pending
// cells and those emitted are emitted. Any other cell is queued in w.next.
func (w *walk) visit(f *cellid.Cursor, rect geom.Rect, list []int32, in uint32, p geom.Point, pending int) {
	n := len(w.nextLists)
	rel := w.k.classify(rect, list, &w.nextLists, in)
	if rel == disjoint {
		return
	}
	if opts := &w.c.opts; rel == interior || w.level >= opts.MaxLevel || len(w.out)+pending+4 > opts.MaxCells {
		w.out = append(w.out, emitted{f.ID, rel == interior})
		w.nextLists = w.nextLists[:n]
		return
	}
	// Filled in place: a group is too large to copy cheaply.
	w.next = slices.Grow(w.next, 1)[:len(w.next)+1]
	g := &w.next[len(w.next)-1]
	g.Cursor, g.rect, g.lo, g.hi = *f, rect, int32(n), int32(len(w.nextLists))
	g.mid = w.c.dom.CellRectAt(2*f.I+1, 2*f.J+1, w.level+1).Min
	g.in = unknownMask
	if w.k.poly != nil {
		g.in = w.k.centreMask(p, g.mid, rect, in, w.nextLists[n:])
	}
}

// covering merges the emitted runs into a Covering with exact-size slices
// of its own.
func (w *walk) covering() *Covering {
	merged := w.merge()
	cov := &Covering{Cells: make([]cellid.ID, len(merged)), Interior: make([]bool, len(merged))}
	for i, e := range merged {
		cov.Cells[i] = e.id
		cov.Interior[i] = e.interior
	}
	return cov
}

// merge sorts w.out by merging its ascending runs out[runs[r]:runs[r+1]]
// pairwise, back and forth between out and merged: O(n log r) for r runs.
func (w *walk) merge() []emitted {
	src, runs := w.out, w.runs
	if len(runs) <= 2 {
		return src
	}
	dst := slices.Grow(w.merged[:0], len(src))[:len(src)]
	for len(runs) > 2 {
		// Run r/2 of the next pass is runs r and r+1 of this one; an odd
		// last run is copied across alone.
		last, nr := len(runs)-1, 0
		for r := 0; r < last; r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[min(r+2, last)]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			runs[nr] = lo
			nr++
		}
		runs[nr] = runs[last]
		runs = runs[:nr+1]
		src, dst = dst, src
	}
	w.out, w.merged = src, dst
	return src
}

// mergeRuns merges the ascending runs a and b into dst, which has room for
// both.
func mergeRuns(dst, a, b []emitted) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0].id < b[0].id {
			dst[k], a = a[0], a[1:]
		} else {
			dst[k], b = b[0], b[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// enclosingCell returns the smallest single cell whose rectangle contains
// bb: the walk's start.
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

// SharedCovering is the covering step of a join: one covering per region,
// its guaranteed error bound, and the interior/boundary cell counts the
// join operator reports as metrics.
type SharedCovering struct {
	// Covers holds one covering per input region, positionally aligned.
	Covers []*Covering
	// Bounds holds each covering's guaranteed error distance.
	Bounds []float64
	// InteriorPairs counts (region, covering cell) pairs whose cell lies
	// wholly inside its region: answered with no refinement.
	InteriorPairs int
	// BoundaryPairs counts the other (region, covering cell) pairs.
	BoundaryPairs int
}

// CoverShared covers every region with Cover, so each covering is exactly
// the one a single-region query gets. Distinct regions are covered in
// parallel: min(GOMAXPROCS, len(regions)) workers, the caller's goroutine
// among them, claim regions in turn and write positional slots, so the
// result does not depend on the schedule.
func (c *Coverer) CoverShared(regions []Region) *SharedCovering {
	sc := &SharedCovering{
		Covers: make([]*Covering, len(regions)),
		Bounds: make([]float64, len(regions)),
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(regions); i = int(next.Add(1)) - 1 {
			sc.Covers[i] = c.Cover(regions[i])
			sc.Bounds[i] = c.GuaranteedErrorDistance(sc.Covers[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(regions)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, cov := range sc.Covers {
		for _, in := range cov.Interior {
			if in {
				sc.InteriorPairs++
			} else {
				sc.BoundaryPairs++
			}
		}
	}
	return sc
}

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

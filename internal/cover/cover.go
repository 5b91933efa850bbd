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
//
// The walk is level order and never decodes a Hilbert id: each frontier
// cell carries its grid coordinates and curve orientation
// (cellid.Cursor), from which its rectangle and its children follow
// directly. Every level emits one ascending run of cells, so the covering
// is sorted by merging those runs, not by a comparison sort. The walk's
// scratch slices come from a pool and only the returned Covering is
// allocated.
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

// newClassifier builds region's classifier, appending its edges to buf.
func newClassifier(region Region, buf []edge) classifier {
	k := classifier{region: region, edges: buf}
	p, ok := region.(*geom.Polygon)
	if !ok {
		return k
	}
	k.poly = p
	n := len(p.Outer())
	for _, h := range p.Holes() {
		n += len(h)
	}
	k.edges = slices.Grow(k.edges, n)
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
	k := newClassifier(region, w.edges[:0])
	start := c.enclosingCell(bb)
	if start.Level() < c.opts.MinLevel {
		// Seed with all MinLevel descendants that intersect the region
		// instead of one giant cell, so MinLevel is respected.
		c.seedAtLevel(&k, start, c.opts.MinLevel, w)
	} else {
		c.walkLevels(&k, start, w)
	}
	w.edges = k.edges
	cov := w.covering()
	w.release()
	return cov
}

// walk is the scratch of one Cover call: the classifier's edges, the
// level-order walk's frontier and edge-list arrays, the emitted cells with
// the bounds of their ascending runs, and the merge buffer. Cover takes it
// from walkPool and copies the result out before putting it back, so no
// pooled memory escapes into a Covering.
type walk struct {
	edges            []edge
	frontier, next   []cell
	lists, nextLists []int32
	out, merged      []emitted
	runs             []int
}

// cell is a frontier cell: its cursor and its edge list lists[lo:hi].
type cell struct {
	cellid.Cursor
	lo, hi int32
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
	if max(cap(w.edges), cap(w.frontier), cap(w.next), cap(w.lists), cap(w.nextLists),
		cap(w.out), cap(w.merged), cap(w.runs)) <= maxPooledLen {
		walkPool.Put(w)
	}
}

// walkLevels refines from start coarsest-first, so the cell budget goes to
// the big boundary cells first. Children are one level finer than their
// parent and children of ascending disjoint parents ascend, so "coarsest
// first, then by id" is a level-order walk over two frontier slices, and
// each level emits one ascending run. A frontier cell carries its grid
// coordinates and Hilbert orientation, so no cell id is decoded. Its edge
// list is lists[lo:hi]; the lists of the next level are filled into
// nextLists while this level is classified. Cover only walks from a start
// at MinLevel or finer, so every level may emit.
func (c *Coverer) walkLevels(k *classifier, start cellid.ID, w *walk) {
	lists := k.appendAll(w.lists[:0])
	frontier := append(w.frontier[:0], cell{cellid.NewCursor(start), 0, int32(len(lists))})
	next, nextLists := w.next[:0], w.nextLists[:0]
	out, runs := w.out[:0], append(w.runs[:0], 0)
	for level := start.Level(); len(frontier) > 0; level++ {
		for i, f := range frontier {
			n := len(nextLists)
			rel := k.classify(c.dom.CellRectAt(f.I, f.J, level), lists[f.lo:f.hi], &nextLists)
			if rel == geom.RectDisjoint {
				continue
			}
			contained := rel == geom.RectContains
			// Budget check: the four children plus whatever is pending or
			// emitted must stay within MaxCells, otherwise emit as-is.
			pending := len(frontier) - i - 1 + len(next)
			if contained || level >= c.opts.MaxLevel || len(out)+pending+4 > c.opts.MaxCells {
				out = append(out, emitted{f.ID, contained})
				nextLists = nextLists[:n]
				continue
			}
			lo, hi := int32(n), int32(len(nextLists))
			for _, child := range f.Children() {
				next = append(next, cell{child, lo, hi})
			}
		}
		if len(out) > runs[len(runs)-1] {
			runs = append(runs, len(out))
		}
		frontier, next = next, frontier[:0]
		lists, nextLists = nextLists, lists[:0]
	}
	w.frontier, w.next, w.lists, w.nextLists = frontier, next, lists, nextLists
	w.out, w.runs = out, runs
}

// seedAtLevel emits all descendants of start at the given level that
// intersect the region, in ascending order: one run. Used when the
// enclosing cell is coarser than MinLevel.
func (c *Coverer) seedAtLevel(k *classifier, start cellid.ID, level int, w *walk) {
	all := k.appendAll(w.lists[:0])
	hits := w.nextLists[:0]
	out := w.out[:0]
	begin := start.ChildBeginAt(level)
	end := start.ChildEndAt(level)
	for id := begin; ; id = id.Next() {
		hits = hits[:0]
		if rel := k.classify(c.dom.CellRect(id), all, &hits); rel != geom.RectDisjoint {
			out = append(out, emitted{id, rel == geom.RectContains})
		}
		if id == end {
			break
		}
	}
	w.lists, w.nextLists = all, hits
	w.out, w.runs = out, append(w.runs[:0], 0, len(out))
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

// shared.go implements the shared-grid multi-region coverer behind the
// join operator: one coarse grid is laid over the union footprint of all
// query regions, regions are bucketed by the grid cells they touch, and
// each (region, grid cell) pair is classified interior or boundary.
// Interior pairs emit the whole grid cell with zero further geometry
// tests; only boundary pairs refine, by direct recursion down to
// MaxLevel. The per-region result is then canonicalised by coalescing
// complete interior sibling runs, which makes it cell-for-cell identical
// to the covering Cover computes for the region alone — the property the
// join's bit-identity contract rests on (pinned in shared_test.go).
package cover

import (
	"cmp"
	"slices"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// SharedCovering is the result of covering many regions against one
// shared grid: per-region coverings (each equivalent to Cover on that
// region), per-region guaranteed error bounds, and the grid bookkeeping
// the join operator reports as metrics.
type SharedCovering struct {
	// GridLevel is the level of the shared coarse grid.
	GridLevel int
	// GridCells lists the grid cells touched by at least one region,
	// ascending — the buckets of the shared pass.
	GridCells []cellid.ID
	// Covers holds one covering per input region, positionally aligned.
	Covers []*Covering
	// Bounds holds each covering's guaranteed error distance.
	Bounds []float64
	// InteriorPairs counts (region, grid cell) pairs answered wholesale:
	// the grid cell was fully inside the region, so it was emitted with
	// no point-in-polygon work at all.
	InteriorPairs int
	// BoundaryPairs counts pairs that needed boundary refinement.
	BoundaryPairs int
	// Fallbacks counts regions answered by the single-region Cover
	// instead of the shared grid (oversized coverings near the MaxCells
	// budget, or MinLevel-constrained coverers). Fallback coverings are
	// Cover's own output, so equivalence is trivial — only the shared
	// pass's economy is lost.
	Fallbacks int
}

// sharedGridLevel picks the grid level from two criteria, capped at the
// block level: a count-driven floor — enough grid cells that region
// buckets stay balanced — and a size-driven floor that puts grid cells
// comfortably inside the average region: a cell strictly inside a
// region (an interior pair, the zero-geometry-test case) needs headroom
// of a couple of halvings beyond parity with the region's own extent.
func (c *Coverer) sharedGridLevel(startLevel, nregions int, avgDim float64, maxLevel int) int {
	depth := 1
	for cells := 4; cells < 16*nregions && depth < 8; depth++ {
		cells *= 4
	}
	lvl := startLevel + depth
	if avgDim > 0 {
		b := c.dom.Bound()
		dim := b.Width()
		if b.Height() > dim {
			dim = b.Height()
		}
		for lvl < maxLevel && dim/float64(uint64(1)<<uint(lvl)) > avgDim/4 {
			lvl++
		}
	}
	if lvl > maxLevel {
		lvl = maxLevel
	}
	return lvl
}

// CoverShared covers every region in one shared-grid pass. Each returned
// covering satisfies the same contract as Cover(region) — and, for
// non-fallback regions, is cell-for-cell identical to it: the walk is
// confined to the region's own enclosing-cell subtree (exactly Cover's
// search space, which matters because rectangles are closed and regions
// may touch grid lines), every cell is classified as Cover classifies it
// (the same classifier; a grid cell tests the full edge list where Cover
// tests an inherited one, and both find the same edges), and interior
// sibling coalescing reconstructs the maximal interior cells Cover emits
// directly. Regions whose covering grows past MaxCells/4 fall back to
// Cover so budget truncation — whose shape depends on Cover's
// level-order walk, which the depth-first shared walk does not reproduce
// — can never be in play on the shared path.
func (c *Coverer) CoverShared(regions []Region) *SharedCovering {
	sc := &SharedCovering{
		Covers: make([]*Covering, len(regions)),
		Bounds: make([]float64, len(regions)),
	}
	for i := range sc.Covers {
		sc.Covers[i] = &Covering{}
	}
	domB := c.dom.Bound()
	bbs := make([]geom.Rect, len(regions))
	var union geom.Rect
	seen := false
	for i, rg := range regions {
		bbs[i] = rg.Bound().Intersection(domB)
		if !bbs[i].IsValid() {
			continue
		}
		if !seen {
			union, seen = bbs[i], true
		} else {
			union = union.Union(bbs[i])
		}
	}
	if !seen {
		return sc
	}

	fallback := func(i int) {
		cov := c.Cover(regions[i])
		sc.Covers[i] = cov
		sc.Bounds[i] = c.GuaranteedErrorDistance(cov)
		sc.Fallbacks++
	}
	if c.opts.MinLevel > 0 {
		// MinLevel coverers take Cover's seeded path, which the shared
		// walk does not model; answer every region individually.
		sc.GridLevel = c.opts.MinLevel
		for i := range regions {
			if bbs[i].IsValid() {
				fallback(i)
			}
		}
		return sc
	}

	start := c.enclosingCell(union)
	var dimSum float64
	ndim := 0
	for i := range regions {
		if bbs[i].IsValid() {
			d := bbs[i].Width()
			if h := bbs[i].Height(); h > d {
				d = h
			}
			dimSum += d
			ndim++
		}
	}
	sc.GridLevel = c.sharedGridLevel(start.Level(), len(regions), dimSum/float64(ndim), c.opts.MaxLevel)
	budget := c.opts.MaxCells / 4
	gridSet := make(map[cellid.ID]struct{})

	for i, region := range regions {
		if !bbs[i].IsValid() {
			continue
		}
		if !c.coverSharedOne(region, bbs[i], sc, gridSet, budget, sc.Covers[i]) {
			sc.Covers[i] = &Covering{}
			fallback(i)
			continue
		}
		c.finish(sc.Covers[i])
		coalesceInterior(sc.Covers[i])
		sc.Bounds[i] = c.GuaranteedErrorDistance(sc.Covers[i])
	}

	sc.GridCells = make([]cellid.ID, 0, len(gridSet))
	for id := range gridSet {
		sc.GridCells = append(sc.GridCells, id)
	}
	slices.SortFunc(sc.GridCells, func(a, b cellid.ID) int { return cmp.Compare(a, b) })
	return sc
}

// coverSharedOne runs one region through the shared grid, appending to
// out. It returns false when the covering exceeded the fallback budget.
func (c *Coverer) coverSharedOne(region Region, bb geom.Rect, sc *SharedCovering, gridSet map[cellid.ID]struct{}, budget int, out *Covering) bool {
	// lists is a stack of edge lists (see classifier). It starts as the
	// list of every edge; classifying a cell pushes the edges that meet it
	// — its children's list — and the cell pops them when it is done.
	k := newClassifier(region)
	lists := k.appendAll(nil)
	all := len(lists)

	// refine is Cover's refinement loop as a direct recursion, with the
	// MinLevel=0 branches inlined: prune on intersection, emit on
	// containment or at MaxLevel, else subdivide.
	var refine func(id cellid.ID, lo, hi int) bool
	refine = func(id cellid.ID, lo, hi int) bool {
		n := len(lists)
		rel := k.classify(c.dom.CellRect(id), lists[lo:hi], &lists)
		if rel == geom.RectDisjoint {
			return true
		}
		contained := rel == geom.RectContains
		if contained || id.Level() >= c.opts.MaxLevel {
			lists = lists[:n]
			out.Cells = append(out.Cells, id)
			out.Interior = append(out.Interior, contained)
			return len(out.Cells) <= budget
		}
		m := len(lists)
		for _, child := range id.Children() {
			if !refine(child, n, m) {
				return false
			}
		}
		lists = lists[:n]
		return true
	}

	// The walk is confined to the region's own enclosing cell: cells
	// outside it can at most touch the region along a grid line
	// (rectangles are closed), and Cover never emits them.
	encl := c.enclosingCell(bb)
	if encl.Level() >= sc.GridLevel {
		// The whole region fits inside one grid cell; its bucket is the
		// grid-level ancestor and the pair refines as one unit.
		gridSet[encl.Parent(sc.GridLevel)] = struct{}{}
		sc.BoundaryPairs++
		return refine(encl, 0, all)
	}

	// Scan the grid cells under the region's bounding box directly in
	// (i, j) space — no Hilbert-tree descent, and no per-cell Hilbert
	// decode: rectangles come from the grid coordinates and an id is only
	// encoded for cells the region actually touches. The integer range is
	// widened by one cell each way because rectangles are closed (a grid
	// cell touching bb along a grid line still intersects it) and LeafIJ's
	// float rounding can land one cell off an exact boundary; the exact
	// rect-intersection test below is the authority, so extra candidates
	// are harmless. Cells outside the enclosing cell's subtree are skipped
	// to preserve Cover's exact search space.
	shift := uint(cellid.MaxLevel - sc.GridLevel)
	li0, lj0 := c.dom.LeafIJ(bb.Min)
	li1, lj1 := c.dom.LeafIJ(bb.Max)
	gi0, gj0, gi1, gj1 := li0>>shift, lj0>>shift, li1>>shift, lj1>>shift
	gmax := uint32(1)<<uint(sc.GridLevel) - 1
	if gi0 > 0 {
		gi0--
	}
	if gj0 > 0 {
		gj0--
	}
	if gi1 < gmax {
		gi1++
	}
	if gj1 < gmax {
		gj1++
	}
	enclShift := uint(sc.GridLevel - encl.Level())
	ei, ej := encl.IJ()
	for gi := gi0; gi <= gi1; gi++ {
		if gi>>enclShift != ei {
			continue
		}
		for gj := gj0; gj <= gj1; gj++ {
			if gj>>enclShift != ej {
				continue
			}
			rect := c.dom.CellRectAt(gi, gj, sc.GridLevel)
			if !rect.Intersects(bb) {
				continue
			}
			rel := k.classify(rect, lists[:all], &lists)
			if rel == geom.RectDisjoint {
				continue
			}
			id := cellid.FromIJ(gi, gj, sc.GridLevel)
			gridSet[id] = struct{}{}
			if rel == geom.RectContains {
				// Interior pair: the grid cell is wholly inside the region —
				// emitted as-is, zero boundary tests. Coalescing below merges
				// complete interior sibling runs back into the coarser cells
				// Cover would have emitted.
				sc.InteriorPairs++
				out.Cells = append(out.Cells, id)
				out.Interior = append(out.Interior, true)
				if len(out.Cells) > budget {
					return false
				}
				continue
			}
			// Boundary pair: the classification above already is Cover's
			// verdict for this cell, so refinement skips straight to the
			// children (or emits, at MaxLevel) instead of re-classifying.
			sc.BoundaryPairs++
			if sc.GridLevel >= c.opts.MaxLevel {
				lists = lists[:all]
				out.Cells = append(out.Cells, id)
				out.Interior = append(out.Interior, false)
				if len(out.Cells) > budget {
					return false
				}
				continue
			}
			m := len(lists)
			for _, child := range id.Children() {
				if !refine(child, all, m) {
					return false
				}
			}
			lists = lists[:all]
		}
	}
	return true
}

// coalesceInterior canonicalises a sorted covering by repeatedly merging
// complete runs of four interior siblings into their (interior) parent.
// Containment is monotone — a region containing all four child
// rectangles contains the parent rectangle — so every merged parent is
// exactly a cell Cover emits, and conversely any interior cell Cover
// emits above the grid level decomposes into complete interior sibling
// runs that merge back. The array stays sorted throughout because a
// parent occupies its children's position in cell-id order.
func coalesceInterior(cov *Covering) {
	for {
		merged := false
		cells, interior := cov.Cells, cov.Interior
		w := 0
		for i := 0; i < len(cells); {
			if i+3 < len(cells) && interior[i] && interior[i+1] && interior[i+2] && interior[i+3] {
				if l := cells[i].Level(); l > 0 &&
					cells[i+1].Level() == l && cells[i+2].Level() == l && cells[i+3].Level() == l {
					p := cells[i].Parent(l - 1)
					if cells[i+1].Parent(l-1) == p && cells[i+2].Parent(l-1) == p && cells[i+3].Parent(l-1) == p {
						cells[w], interior[w] = p, true
						w++
						i += 4
						merged = true
						continue
					}
				}
			}
			cells[w], interior[w] = cells[i], interior[i]
			w++
			i++
		}
		cov.Cells, cov.Interior = cells[:w], interior[:w]
		if !merged {
			return
		}
	}
}

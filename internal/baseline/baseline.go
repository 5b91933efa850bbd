// Package baseline provides the on-the-fly aggregation baselines of the
// paper's evaluation (Sec. 4.1) and the shared machinery they use: a
// row-level accumulator over raw columnar data, the BinarySearch baseline,
// and exact ground-truth aggregation for error measurement.
package baseline

import (
	"math"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

// RowAccumulator folds raw rows into the requested aggregates. It is the
// on-the-fly counterpart of the GeoBlock cell-aggregate accumulator: every
// qualifying tuple is touched, which is exactly the cost the paper's
// baselines pay.
type RowAccumulator struct {
	specs []core.AggSpec
	count uint64
	vals  []float64
}

// NewRowAccumulator creates an accumulator for the given aggregates.
func NewRowAccumulator(specs []core.AggSpec) *RowAccumulator {
	vals := make([]float64, len(specs))
	for i, s := range specs {
		switch s.Func {
		case core.AggMin:
			vals[i] = math.Inf(1)
		case core.AggMax:
			vals[i] = math.Inf(-1)
		}
	}
	return &RowAccumulator{specs: specs, vals: vals}
}

// AddRow folds row i of t into the accumulator.
func (a *RowAccumulator) AddRow(t *column.Table, i int) {
	a.count++
	for k, s := range a.specs {
		switch s.Func {
		case core.AggCount:
		case core.AggSum, core.AggAvg:
			a.vals[k] += t.Cols[s.Col][i]
		case core.AggMin:
			if v := t.Cols[s.Col][i]; v < a.vals[k] {
				a.vals[k] = v
			}
		case core.AggMax:
			if v := t.Cols[s.Col][i]; v > a.vals[k] {
				a.vals[k] = v
			}
		}
	}
}

// AddAggregate folds a pre-combined aggregate record (count plus
// per-column min/max/sum) into the accumulator. The aR-tree baseline uses
// this to consume whole-node aggregates (paper Listing 3, case b).
func (a *RowAccumulator) AddAggregate(count uint64, cols []core.ColAggregate) {
	a.count += count
	for k, s := range a.specs {
		switch s.Func {
		case core.AggCount:
		case core.AggSum, core.AggAvg:
			a.vals[k] += cols[s.Col].Sum
		case core.AggMin:
			if v := cols[s.Col].Min; v < a.vals[k] {
				a.vals[k] = v
			}
		case core.AggMax:
			if v := cols[s.Col].Max; v > a.vals[k] {
				a.vals[k] = v
			}
		}
	}
}

// Count returns the number of rows folded so far.
func (a *RowAccumulator) Count() uint64 { return a.count }

// Result finalises the accumulator.
func (a *RowAccumulator) Result() core.Result {
	out := core.Result{Count: a.count, Values: make([]float64, len(a.specs))}
	for i, s := range a.specs {
		switch s.Func {
		case core.AggCount:
			out.Values[i] = float64(a.count)
		case core.AggSum:
			out.Values[i] = a.vals[i]
		case core.AggMin, core.AggMax:
			if a.count == 0 {
				out.Values[i] = math.NaN()
			} else {
				out.Values[i] = a.vals[i]
			}
		case core.AggAvg:
			if a.count == 0 {
				out.Values[i] = math.NaN()
			} else {
				out.Values[i] = a.vals[i] / float64(a.count)
			}
		}
	}
	return out
}

// BinarySearch is the simplest baseline (paper Sec. 4.1): no index at all.
// For each covering cell it binary-searches the sorted base data for the
// first and last contained raw tuple and aggregates everything in between
// on the fly.
type BinarySearch struct {
	table *column.Table
}

// NewBinarySearch wraps a sorted base table. It panics if the table is not
// sorted, as the search would silently return wrong ranges.
func NewBinarySearch(t *column.Table) *BinarySearch {
	if !t.Sorted {
		panic("baseline: BinarySearch requires sorted base data")
	}
	return &BinarySearch{table: t}
}

// Name identifies the baseline in experiment output.
func (b *BinarySearch) Name() string { return "BinarySearch" }

// SizeBytes returns the additional storage of the baseline beyond the base
// data — zero, which is why the paper omits it from the overhead chart.
func (b *BinarySearch) SizeBytes() int { return 0 }

// AggregateCovering aggregates all raw tuples whose leaf key falls inside
// the covering.
func (b *BinarySearch) AggregateCovering(cov []cellid.ID, specs []core.AggSpec) core.Result {
	acc := NewRowAccumulator(specs)
	for _, qc := range cov {
		lo := b.table.LowerBound(uint64(qc.RangeMin()))
		hi := uint64(qc.RangeMax())
		for i := lo; i < b.table.NumRows() && b.table.Keys[i] <= hi; i++ {
			acc.AddRow(b.table, i)
		}
	}
	return acc.Result()
}

// CountCovering counts tuples in the covering using two binary searches
// per covering cell — the fair COUNT counterpart.
func (b *BinarySearch) CountCovering(cov []cellid.ID) uint64 {
	var total uint64
	for _, qc := range cov {
		lo := b.table.LowerBound(uint64(qc.RangeMin()))
		hi := b.table.UpperBound(uint64(qc.RangeMax()))
		total += uint64(hi - lo)
	}
	return total
}

// ExactPolygonCount returns the exact number of base tuples whose location
// lies inside the polygon, reconstructing each tuple's location as its
// leaf-cell centre (sub-centimetre error at level 30). This is the
// denominator of the paper's relative-error metric (Sec. 4.2, Fig. 14).
func ExactPolygonCount(t *column.Table, dom cellid.Domain, poly *geom.Polygon) uint64 {
	var n uint64
	bb := poly.Bound()
	for i := 0; i < t.NumRows(); i++ {
		p := dom.CellCenter(cellid.ID(t.Keys[i]))
		if !bb.ContainsPoint(p) {
			continue
		}
		if poly.ContainsPoint(p) {
			n++
		}
	}
	return n
}

// distToSegment returns the distance from p to the segment [a, b].
func distToSegment(p, a, b geom.Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	t := 0.0
	if den > 0 {
		t = p.Sub(a).Dot(ab) / den
	}
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

// DistanceToPolygon returns 0 for points inside (or on the boundary of)
// the polygon, and otherwise the distance to the nearest ring segment.
func DistanceToPolygon(p geom.Point, poly *geom.Polygon) float64 {
	if poly.ContainsPoint(p) {
		return 0
	}
	best := math.Inf(1)
	measure := func(ring []geom.Point) {
		for i := range ring {
			j := i + 1
			if j == len(ring) {
				j = 0
			}
			if d := distToSegment(p, ring[i], ring[j]); d < best {
				best = d
			}
		}
	}
	measure(poly.Outer())
	for _, hole := range poly.Holes() {
		measure(hole)
	}
	return best
}

// ExactDilatedPolygonCount counts base tuples within margin of the
// polygon (tuples inside it included), reconstructing locations as
// leaf-cell centres like ExactPolygonCount. It is the upper reference of
// the query planner's guarantee: an error-bounded answer may add only
// tuples lying within its reported bound of the query region, so for any
// result with guaranteed bound e,
//
//	ExactPolygonCount <= result.Count <= ExactDilatedPolygonCount(…, e).
func ExactDilatedPolygonCount(t *column.Table, dom cellid.Domain, poly *geom.Polygon, margin float64) uint64 {
	bb := poly.Bound().Expanded(margin)
	var n uint64
	for i := 0; i < t.NumRows(); i++ {
		p := dom.CellCenter(cellid.ID(t.Keys[i]))
		if !bb.ContainsPoint(p) {
			continue
		}
		if DistanceToPolygon(p, poly) <= margin {
			n++
		}
	}
	return n
}

// ExactRectCount is ExactPolygonCount for rectangles.
func ExactRectCount(t *column.Table, dom cellid.Domain, r geom.Rect) uint64 {
	var n uint64
	for i := 0; i < t.NumRows(); i++ {
		if r.ContainsPoint(dom.CellCenter(cellid.ID(t.Keys[i]))) {
			n++
		}
	}
	return n
}

// RelativeError computes the paper's error metric:
// |result − truth| / truth. It returns 0 when both are zero and +Inf when
// only the truth is zero.
func RelativeError(result, truth uint64) float64 {
	if truth == 0 {
		if result == 0 {
			return 0
		}
		return math.Inf(1)
	}
	diff := float64(result) - float64(truth)
	return math.Abs(diff) / float64(truth)
}

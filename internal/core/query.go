package core

import (
	"fmt"
	"math"

	"geoblocks/internal/cellid"
)

// AggFunc identifies a non-holistic aggregate function (paper Sec. 2).
type AggFunc uint8

// Supported aggregate functions. Avg is derived as Sum/Count at
// finalisation time (paper Sec. 3.4).
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "?"
}

// AggSpec requests one aggregate over one column. Col is ignored for
// AggCount.
type AggSpec struct {
	Col  int
	Func AggFunc
}

// Result holds the answer of a spatial aggregation query: the tuple count
// within the covering plus one value per requested AggSpec (NaN for
// min/max/avg over zero tuples).
type Result struct {
	Count  uint64
	Values []float64
	// CellsVisited counts cell aggregates combined, a work metric used by
	// the experiments.
	CellsVisited int
	// Level is the block level the query was answered at. The core kernels
	// leave it zero; the geoblocks-layer query planner fills it in when it
	// resolves a query onto a pyramid level.
	Level int
	// ErrorBound is the guaranteed spatial error bound of this answer in
	// domain units: every tuple it includes beyond the exact query region
	// lies within this distance of the region, and no tuple inside the
	// region is missed (paper Sec. 3.2). Like Level it is filled in by the
	// planner, from the covering actually executed.
	ErrorBound float64
}

// validateSpecs checks the requested aggregates against the schema.
func (b *GeoBlock) validateSpecs(specs []AggSpec) error {
	for _, s := range specs {
		if s.Func > AggAvg {
			return fmt.Errorf("core: unknown aggregate function %d", s.Func)
		}
		if s.Func != AggCount && (s.Col < 0 || s.Col >= b.schema.NumCols()) {
			return fmt.Errorf("core: aggregate column %d out of range (%d columns)",
				s.Col, b.schema.NumCols())
		}
	}
	return nil
}

// accumulator combines cell aggregates into the requested outputs. The
// combining cost scales with the number of requested aggregates, which is
// the effect Fig. 10 measures.
type accumulator struct {
	specs []AggSpec
	count uint64
	vals  []float64 // running value per spec (sums for Avg)
}

func newAccumulator(specs []AggSpec) *accumulator {
	vals := make([]float64, len(specs))
	for i, s := range specs {
		switch s.Func {
		case AggMin:
			vals[i] = math.Inf(1)
		case AggMax:
			vals[i] = math.Inf(-1)
		}
	}
	return &accumulator{specs: specs, vals: vals}
}

// combineCell folds the i-th cell aggregate of b into the accumulator —
// the per-cell, per-spec combine the paper's Listing 1 describes. The
// endpoint-based combineRange below supersedes it on the SELECT hot path;
// it remains the kernel of the scan ablation and of the child-granular
// accumulation the query cache needs.
func (a *accumulator) combineCell(b *GeoBlock, i int) {
	a.count += uint64(b.counts[i])
	for k, s := range a.specs {
		switch s.Func {
		case AggCount:
			// Tracked globally via a.count.
		case AggSum, AggAvg:
			a.vals[k] += b.cols[s.Col].sums[i]
		case AggMin:
			if v := b.cols[s.Col].mins[i]; v < a.vals[k] {
				a.vals[k] = v
			}
		case AggMax:
			if v := b.cols[s.Col].maxs[i]; v > a.vals[k] {
				a.vals[k] = v
			}
		}
	}
}

// minOf returns the minimum of a non-empty slice with a tight,
// branch-predictable loop — the fused SoA kernel for MIN.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// maxOf is the MAX counterpart of minOf.
func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// combineRange folds the contiguous cell-aggregate range [first, last] of
// b into the accumulator. COUNT is the offset range sum of Listing 2, SUM
// and the AVG numerator are prefix-sum endpoint differences — both O(1)
// regardless of how many aggregates the range spans — and MIN/MAX fall
// back to a fused scan over the column's contiguous extremum array. The
// AggFunc dispatch happens once per covering cell, never inside the scan
// loops.
func (a *accumulator) combineRange(b *GeoBlock, first, last int) {
	a.count += uint64(b.offsets[last]) + uint64(b.counts[last]) - uint64(b.offsets[first])
	for k, s := range a.specs {
		switch s.Func {
		case AggCount:
			// Tracked globally via a.count.
		case AggSum, AggAvg:
			p := b.cols[s.Col].prefix
			a.vals[k] += p[last+1] - p[first]
		case AggMin:
			if v := minOf(b.cols[s.Col].mins[first : last+1]); v < a.vals[k] {
				a.vals[k] = v
			}
		case AggMax:
			if v := maxOf(b.cols[s.Col].maxs[first : last+1]); v > a.vals[k] {
				a.vals[k] = v
			}
		}
	}
}

// mergeFrom folds another accumulator built over the same specs into a.
// COUNT adds and MIN/MAX take the extremum — both associative, so the
// merged result is bit-identical to a serial run. SUM (and the AVG
// numerator) re-associates the additions at the merge points; the result
// differs from the serial sum only by ordinary floating-point rounding
// (see DESIGN.md Sec. 6 for the bound) and is exact for integer-valued
// columns within 2^53.
func (a *accumulator) mergeFrom(o *accumulator) {
	a.count += o.count
	for k, s := range a.specs {
		switch s.Func {
		case AggCount:
			// Tracked globally via a.count.
		case AggSum, AggAvg:
			a.vals[k] += o.vals[k]
		case AggMin:
			if o.vals[k] < a.vals[k] {
				a.vals[k] = o.vals[k]
			}
		case AggMax:
			if o.vals[k] > a.vals[k] {
				a.vals[k] = o.vals[k]
			}
		}
	}
}

// combineValues folds a pre-combined aggregate record (count + per-column
// aggregates, e.g. from the query cache) into the accumulator.
func (a *accumulator) combineValues(count uint64, cols []ColAggregate) {
	a.count += count
	for k, s := range a.specs {
		switch s.Func {
		case AggCount:
		case AggSum, AggAvg:
			a.vals[k] += cols[s.Col].Sum
		case AggMin:
			if v := cols[s.Col].Min; v < a.vals[k] {
				a.vals[k] = v
			}
		case AggMax:
			if v := cols[s.Col].Max; v > a.vals[k] {
				a.vals[k] = v
			}
		}
	}
}

// finish converts running values into the final Result.
func (a *accumulator) finish(visited int) Result {
	out := Result{Count: a.count, Values: make([]float64, len(a.specs)), CellsVisited: visited}
	for i, s := range a.specs {
		switch s.Func {
		case AggCount:
			out.Values[i] = float64(a.count)
		case AggSum:
			out.Values[i] = a.vals[i]
		case AggMin, AggMax:
			if a.count == 0 {
				out.Values[i] = math.NaN()
			} else {
				out.Values[i] = a.vals[i]
			}
		case AggAvg:
			if a.count == 0 {
				out.Values[i] = math.NaN()
			} else {
				out.Values[i] = a.vals[i] / float64(a.count)
			}
		}
	}
	return out
}

// SelectCovering answers a SELECT query over a cell covering (paper
// Listing 1, upgraded with per-column prefix sums — DESIGN.md Sec. 3). The
// covering must be sorted ascending with disjoint cells and must not
// contain cells finer than the block level. For each covering cell, the
// first and last contained aggregates are located with gallop-bounded
// searches restricted to the unconsumed suffix (covering cells ascend);
// the whole range is then combined by endpoint arithmetic — COUNT from the
// tuple offsets (Listing 2), SUM/AVG from the prefix-sum arrays — with a
// fused scan only for MIN/MAX. SELECT cost therefore no longer scales with
// the number of cell aggregates under the covering, matching the COUNT
// fast path's level independence.
func (b *GeoBlock) SelectCovering(cov []cellid.ID, specs []AggSpec) (Result, error) {
	if err := b.validateSpecs(specs); err != nil {
		return Result{}, err
	}
	acc := newAccumulator(specs)
	visited := b.selectCoveringInto(acc, cov)
	return acc.finish(visited), nil
}

// selectCoveringInto is the SELECT range kernel: it folds one covering
// into acc in a single ordered pass and returns the number of cell
// aggregates visited. SelectCovering and SelectCoveringPartial both run
// it.
func (b *GeoBlock) selectCoveringInto(acc *accumulator, cov []cellid.ID) int {
	visited := 0
	cursor := 0
	for _, qc := range cov {
		lo, hi := qc.RangeMin(), qc.RangeMax()
		// Constant-time pruning against the global header (Listing 1,
		// lines 5-6).
		if hi < b.header.MinCell.RangeMin() || lo > b.header.MaxCell.RangeMax() {
			continue
		}
		if cursor >= len(b.keys) {
			break
		}
		first := b.gallopLowerBound(lo, cursor)
		if first >= len(b.keys) || b.keys[first] > hi {
			cursor = first
			continue
		}
		last := b.gallopUpperBound(hi, first) - 1
		acc.combineRange(b, first, last)
		visited += last - first + 1
		cursor = last + 1
	}
	return visited
}

// SelectCoveringScan is the pre-prefix-sum SELECT: the cursor-bounded
// successor scan of Listing 1 that combines every contained cell aggregate
// through the per-cell, per-spec switch. It is preserved as the ablation
// baseline that quantifies the prefix-sum optimisation (DESIGN.md Sec. 5)
// and is otherwise equivalent to SelectCovering.
func (b *GeoBlock) SelectCoveringScan(cov []cellid.ID, specs []AggSpec) (Result, error) {
	if err := b.validateSpecs(specs); err != nil {
		return Result{}, err
	}
	acc := newAccumulator(specs)
	visited := 0
	cursor := 0
	for _, qc := range cov {
		lo, hi := qc.RangeMin(), qc.RangeMax()
		if hi < b.header.MinCell.RangeMin() || lo > b.header.MaxCell.RangeMax() {
			continue
		}
		if cursor >= len(b.keys) {
			break
		}
		i := b.gallopLowerBound(lo, cursor)
		for i < len(b.keys) && b.keys[i] <= hi {
			acc.combineCell(b, i)
			visited++
			i++
		}
		cursor = i
	}
	return acc.finish(visited), nil
}

// SelectCoveringBinaryOnly is the ablation variant of SelectCovering that
// re-runs a full binary search for every covering cell instead of reusing
// the scan cursor, and combines per cell instead of per range. It exists
// to quantify the successor optimisation (DESIGN.md Sec. 5) and is
// otherwise equivalent.
func (b *GeoBlock) SelectCoveringBinaryOnly(cov []cellid.ID, specs []AggSpec) (Result, error) {
	if err := b.validateSpecs(specs); err != nil {
		return Result{}, err
	}
	acc := newAccumulator(specs)
	visited := 0
	for _, qc := range cov {
		lo, hi := qc.RangeMin(), qc.RangeMax()
		if hi < b.header.MinCell.RangeMin() || lo > b.header.MaxCell.RangeMax() {
			continue
		}
		i := b.lowerBound(lo, 0)
		for i < len(b.keys) && b.keys[i] <= hi {
			acc.combineCell(b, i)
			visited++
			i++
		}
	}
	return acc.finish(visited), nil
}

// CountCovering answers a COUNT query over a cell covering (paper
// Listing 2). Because cell aggregates store the offset of their first
// tuple in the (filtered) base sequence plus their tuple count, the count
// for a whole covering cell is a range sum touching only the first and
// last contained aggregate:
//
//	last.offset + last.count − first.offset
//
// The runtime is therefore nearly independent of the block level.
func (b *GeoBlock) CountCovering(cov []cellid.ID) uint64 {
	var total uint64
	cursor := 0
	for _, qc := range cov {
		lo, hi := qc.RangeMin(), qc.RangeMax()
		if hi < b.header.MinCell.RangeMin() || lo > b.header.MaxCell.RangeMax() {
			continue
		}
		first := b.gallopLowerBound(lo, cursor)
		if first >= len(b.keys) || b.keys[first] > hi {
			cursor = first
			continue
		}
		last := b.gallopUpperBound(hi, first) - 1
		total += uint64(b.offsets[last]) + uint64(b.counts[last]) - uint64(b.offsets[first])
		cursor = last + 1
	}
	return total
}

// CountCoveringScan is the ablation variant of CountCovering that combines
// every contained cell aggregate like a SELECT instead of using the
// range-sum trick. It quantifies the Listing 2 optimisation.
func (b *GeoBlock) CountCoveringScan(cov []cellid.ID) uint64 {
	var total uint64
	cursor := 0
	for _, qc := range cov {
		lo, hi := qc.RangeMin(), qc.RangeMax()
		if hi < b.header.MinCell.RangeMin() || lo > b.header.MaxCell.RangeMax() {
			continue
		}
		i := cursor
		if i < len(b.keys) && b.keys[i] < lo {
			i = b.lowerBound(lo, cursor)
		} else if i >= len(b.keys) {
			break
		}
		for i < len(b.keys) && b.keys[i] <= hi {
			total += uint64(b.counts[i])
			i++
		}
		cursor = i
	}
	return total
}

// AggregateCell returns the fully materialised aggregate (count plus every
// column's min/max/sum) of all grid cells contained in cell. This is how
// the AggregateTrie computes the records it caches.
func (b *GeoBlock) AggregateCell(cell cellid.ID) (uint64, []ColAggregate) {
	count, cols, _ := b.AggregateCellRange(cell)
	return count, cols
}

// AggregateCellRange is AggregateCell extended with the index one past the
// last aggregate contained in cell. The query cache memoises this end
// index with each cached record so that a cache hit can advance the
// accumulator cursor in constant time instead of galloping over the
// skipped range on the next miss.
//
// Like SelectCovering it answers COUNT and SUM from range endpoints
// (offsets and prefix sums) and only scans the contiguous extremum arrays
// for MIN/MAX, so materialising trie records for coarse cells no longer
// touches every contained aggregate three times.
func (b *GeoBlock) AggregateCellRange(cell cellid.ID) (uint64, []ColAggregate, int) {
	lo, hi := cell.RangeMin(), cell.RangeMax()
	cols := make([]ColAggregate, b.schema.NumCols())
	for c := range cols {
		cols[c] = emptyColAggregate()
	}
	first := b.lowerBound(lo, 0)
	if first >= len(b.keys) || b.keys[first] > hi {
		return 0, cols, first
	}
	last := b.upperBound(hi, first) - 1
	count := uint64(b.offsets[last]) + uint64(b.counts[last]) - uint64(b.offsets[first])
	for c := range cols {
		cs := &b.cols[c]
		cols[c] = ColAggregate{
			Min: minOf(cs.mins[first : last+1]),
			Max: maxOf(cs.maxs[first : last+1]),
			Sum: cs.prefix[last+1] - cs.prefix[first],
		}
	}
	return count, cols, last + 1
}

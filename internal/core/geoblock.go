// Package core implements the GeoBlock data structure (paper Sec. 3): a
// pre-aggregating materialized view over geospatial point data. A GeoBlock
// stores one cell aggregate per non-empty grid cell at a fixed block level,
// sorted by spatial key, plus a global header. SELECT queries combine the
// cell aggregates intersecting a query polygon's cell covering (Listing 1);
// COUNT queries exploit the sorted layout to answer from only the first and
// last aggregate per covering cell (Listing 2).
package core

import (
	"fmt"
	"math"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
)

// ColAggregate is the per-column component of a cell aggregate: minimum,
// maximum and sum of all values in the cell. Together with the tuple count
// it also yields the average (paper Sec. 3.4). It remains the record-
// oriented exchange format (cache slots, headers, derived records); the
// block itself stores columns struct-of-arrays, see colStore.
type ColAggregate struct {
	Min, Max, Sum float64
}

// emptyColAggregate is the identity element for combining.
func emptyColAggregate() ColAggregate {
	return ColAggregate{Min: math.Inf(1), Max: math.Inf(-1), Sum: 0}
}

func (a *ColAggregate) addValue(v float64) {
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
	a.Sum += v
}

func (a *ColAggregate) merge(b ColAggregate) {
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Sum += b.Sum
}

// colStore is the struct-of-arrays aggregate storage of one value column:
// three parallel arrays indexed by cell position (DESIGN.md Sec. 2). The
// split keeps each aggregate kind contiguous so the query kernels stream
// over exactly the array they need instead of striding through interleaved
// {min,max,sum} records.
type colStore struct {
	sums []float64
	mins []float64
	maxs []float64
	// prefix is the exclusive prefix-sum array over sums: len(sums)+1
	// entries with prefix[i] = sums[0] + … + sums[i-1]. It turns the SUM
	// (and AVG numerator) of any contiguous cell-aggregate range into
	// prefix[last+1] − prefix[first], mirroring what offsets already do
	// for COUNT (paper Listing 2).
	prefix []float64
}

// addValueAt folds v into the i-th cell aggregate of the column.
func (cs *colStore) addValueAt(i int, v float64) {
	if v < cs.mins[i] {
		cs.mins[i] = v
	}
	if v > cs.maxs[i] {
		cs.maxs[i] = v
	}
	cs.sums[i] += v
}

// appendEmpty opens a new cell aggregate initialised to the identity.
func (cs *colStore) appendEmpty() {
	cs.sums = append(cs.sums, 0)
	cs.mins = append(cs.mins, math.Inf(1))
	cs.maxs = append(cs.maxs, math.Inf(-1))
}

// at assembles the record view of slot i.
func (cs *colStore) at(i int) ColAggregate {
	return ColAggregate{Min: cs.mins[i], Max: cs.maxs[i], Sum: cs.sums[i]}
}

// Header is the GeoBlock-wide metadata: the minimum and maximum grid cell
// id present (used for constant-time pruning of covering cells) and the
// block-wide aggregate over all tuples (paper Sec. 3.4).
type Header struct {
	MinCell, MaxCell cellid.ID
	Count            uint64
	Cols             []ColAggregate
}

// CellAggregate is a read-only view of one grid cell's aggregate,
// assembled from the columnar arrays for callers that want record-oriented
// access (paper Fig. 1 shows one such record).
type CellAggregate struct {
	Key    cellid.ID
	Offset uint32
	Count  uint32
	MinKey cellid.ID
	MaxKey cellid.ID
	Cols   []ColAggregate
}

// GeoBlock is the pre-aggregating data structure. Cell aggregates are laid
// out columnar, in ascending spatial-key order — the same order as the
// sorted base data. GeoBlocks are write-once; see Update for the batch
// maintenance discussed in paper Sec. 5.
type GeoBlock struct {
	domain cellid.Domain
	level  int
	schema column.Schema
	filter column.Filter

	// Parallel arrays, one entry per non-empty grid cell, sorted by key.
	keys    []cellid.ID
	offsets []uint32 // number of qualifying tuples before this cell
	counts  []uint32
	minKeys []cellid.ID // finest (leaf) key extremes inside the cell
	maxKeys []cellid.ID

	// Per-column struct-of-arrays aggregates plus prefix sums.
	cols []colStore

	header Header

	// base optionally references the sorted base data the block was built
	// from, enabling drill-through and finer rebuilds. It is nil for
	// deserialized blocks.
	base *column.Table

	// mapped marks a block whose aggregate arrays are unsafe.Slice views
	// over a read-only byte region (format v3, see MapBlock). Mapped
	// blocks serve queries normally but reject in-place Update.
	mapped bool
}

// Domain returns the spatial domain the block decomposes.
func (b *GeoBlock) Domain() cellid.Domain { return b.domain }

// Level returns the block level (grid granularity).
func (b *GeoBlock) Level() int { return b.level }

// Schema returns the value-column schema.
func (b *GeoBlock) Schema() column.Schema { return b.schema }

// Filter returns the filter the block was built with (empty = all rows).
func (b *GeoBlock) Filter() column.Filter { return b.filter }

// NumCells returns the number of non-empty grid cells.
func (b *GeoBlock) NumCells() int { return len(b.keys) }

// NumTuples returns the number of qualifying tuples aggregated.
func (b *GeoBlock) NumTuples() uint64 { return b.header.Count }

// Header returns the global header.
func (b *GeoBlock) Header() Header { return b.header }

// Base returns the sorted base data the block was built from, or nil.
func (b *GeoBlock) Base() *column.Table { return b.base }

// Mapped reports whether the block is a read-only view over mapped file
// bytes (see MapBlock). Mapped blocks reject Update with ErrReadOnly.
func (b *GeoBlock) Mapped() bool { return b.mapped }

// CellAt returns a record view of the i-th cell aggregate.
func (b *GeoBlock) CellAt(i int) CellAggregate {
	cols := make([]ColAggregate, len(b.cols))
	for c := range b.cols {
		cols[c] = b.cols[c].at(i)
	}
	return CellAggregate{
		Key:    b.keys[i],
		Offset: b.offsets[i],
		Count:  b.counts[i],
		MinKey: b.minKeys[i],
		MaxKey: b.maxKeys[i],
		Cols:   cols,
	}
}

// SizeBytes returns the in-memory size of the aggregate storage: per cell,
// the key (8), offset (4), count (4), min/max keys (16), 24 bytes per
// column (min/max/sum) and 8 bytes per column for the prefix-sum entry.
// Used for the overhead comparisons (paper Fig. 11b/11c).
func (b *GeoBlock) SizeBytes() int {
	perCell := 8 + 4 + 4 + 16 + 32*len(b.cols)
	return perCell*len(b.keys) + 32 + 24*len(b.header.Cols)
}

// buildPrefixes (re)materialises the per-column prefix-sum arrays from the
// per-cell sums. Cost is one linear pass per column. Every mutation path
// — Build, FoldRows, DecodeFramed, MapBlock and Update — calls it before
// returning (Coarsen writes the same prefixes in its fold pass), so query
// paths can rely on fresh prefixes and stay strictly read-only (safe for
// concurrent readers between serialized updates).
func (b *GeoBlock) buildPrefixes() {
	n := len(b.keys)
	for c := range b.cols {
		cs := &b.cols[c]
		if cap(cs.prefix) < n+1 {
			cs.prefix = make([]float64, n+1)
		} else {
			cs.prefix = cs.prefix[:n+1]
			cs.prefix[0] = 0
		}
		running := 0.0
		for i, s := range cs.sums {
			maybeYield(i)
			running += s
			cs.prefix[i+1] = running
		}
	}
}

// AggSlotBytes returns the byte size of one fully materialised aggregate
// record (count + per-column min/max/sum), the unit the AggregateTrie
// reserves per cached cell.
func (b *GeoBlock) AggSlotBytes() int { return 8 + 24*b.schema.NumCols() }

// lowerBound returns the first aggregate index in [from, n) whose key is
// >= key.
func (b *GeoBlock) lowerBound(key cellid.ID, from int) int {
	lo, hi := from, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first aggregate index in [from, n) whose key is
// > key.
func (b *GeoBlock) upperBound(key cellid.ID, from int) int {
	lo, hi := from, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopLowerBound is lowerBound specialised for cursor-relative seeks:
// the target is usually close to from (covering cells are processed in
// ascending order), so an exponential probe narrows the window in
// O(log distance) before the binary search.
func (b *GeoBlock) gallopLowerBound(key cellid.ID, from int) int {
	n := len(b.keys)
	if from >= n || b.keys[from] >= key {
		return from
	}
	base, end := from, from+1
	for step := 1; end < n && b.keys[end] < key; step <<= 1 {
		base = end
		end += step
	}
	if end > n {
		end = n
	}
	lo, hi := base+1, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopUpperBound is the > key counterpart of gallopLowerBound.
func (b *GeoBlock) gallopUpperBound(key cellid.ID, from int) int {
	n := len(b.keys)
	if from >= n || b.keys[from] > key {
		return from
	}
	base, end := from, from+1
	for step := 1; end < n && b.keys[end] <= key; step <<= 1 {
		base = end
		end += step
	}
	if end > n {
		end = n
	}
	lo, hi := base+1, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// String implements fmt.Stringer.
func (b *GeoBlock) String() string {
	return fmt.Sprintf("GeoBlock(level=%d, cells=%d, tuples=%d, filter=%s)",
		b.level, len(b.keys), b.header.Count, b.filter.Describe(b.schema))
}

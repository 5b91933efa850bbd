package core

import (
	"fmt"
	"math"
	"time"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/geom"
)

// BuildOptions configure the build phase of a GeoBlock.
type BuildOptions struct {
	// Level is the block level: the grid granularity of the cell
	// aggregates and thereby the spatial error bound (paper Sec. 3.2).
	Level int
	// Filter restricts the block to qualifying rows (paper Sec. 3.3);
	// empty keeps all rows.
	Filter column.Filter
}

func (o BuildOptions) validate() error {
	if o.Level < 0 || o.Level > cellid.MaxLevel {
		return fmt.Errorf("core: block level %d out of range [0,%d]", o.Level, cellid.MaxLevel)
	}
	return nil
}

// Build runs the build phase (paper Fig. 5): a single linear pass over the
// sorted base data that filters rows and folds them into per-grid-cell
// aggregates. Empty cells are omitted. Build is the incremental-build path
// of Sec. 3.3: the expensive sort has already happened in Extract and is
// shared by every block built from the same BaseData.
func Build(base *BaseData, opts BuildOptions) (*GeoBlock, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := base.Table
	if !t.Sorted {
		return nil, fmt.Errorf("core: base data must be sorted by key")
	}
	if t.NumRows() > math.MaxUint32 {
		return nil, fmt.Errorf("core: base data exceeds uint32 offsets (%d rows)", t.NumRows())
	}

	b := &GeoBlock{
		domain: base.Domain,
		level:  opts.Level,
		schema: t.Schema,
		filter: opts.Filter,
		cols:   make([]colStore, t.Schema.NumCols()),
		base:   t,
	}
	b.header.Cols = make([]ColAggregate, t.Schema.NumCols())
	for c := range b.header.Cols {
		b.header.Cols[c] = emptyColAggregate()
	}

	var (
		curCell   cellid.ID
		curOpen   bool
		qualified uint32 // qualifying rows so far == offset of next cell
	)
	openCell := func(cell cellid.ID, leafKey cellid.ID) {
		b.keys = append(b.keys, cell)
		b.offsets = append(b.offsets, qualified)
		b.counts = append(b.counts, 0)
		b.minKeys = append(b.minKeys, leafKey)
		b.maxKeys = append(b.maxKeys, leafKey)
		for c := range b.cols {
			b.cols[c].appendEmpty()
		}
		curCell, curOpen = cell, true
	}

	for i := 0; i < t.NumRows(); i++ {
		if !opts.Filter.MatchesRow(t, i) {
			continue
		}
		leaf := cellid.ID(t.Keys[i])
		cell := leaf.Parent(opts.Level)
		if !curOpen || cell != curCell {
			openCell(cell, leaf)
		}
		last := len(b.keys) - 1
		b.counts[last]++
		if leaf < b.minKeys[last] {
			b.minKeys[last] = leaf
		}
		if leaf > b.maxKeys[last] {
			b.maxKeys[last] = leaf
		}
		for c := range b.cols {
			v := t.Cols[c][i]
			b.cols[c].addValueAt(last, v)
			b.header.Cols[c].addValue(v)
		}
		qualified++
	}

	b.header.Count = uint64(qualified)
	if len(b.keys) > 0 {
		b.header.MinCell = b.keys[0]
		b.header.MaxCell = b.keys[len(b.keys)-1]
	}
	b.buildPrefixes()
	return b, nil
}

// BuildStats reports the timing split of an isolated build.
type BuildStats struct {
	FilterTime    time.Duration
	SortTime      time.Duration
	AggregateTime time.Duration
}

// Total returns the end-to-end duration.
func (s BuildStats) Total() time.Duration {
	return s.FilterTime + s.SortTime + s.AggregateTime
}

// BuildIsolated builds a GeoBlock directly from raw, unsorted points,
// filtering before sorting — the alternative the paper analyses in
// Sec. 3.3, eq. (1): clean+filter in O(n), sort the s·n survivors in
// O(s·n log s·n), aggregate in O(s·n). It exists for the amortisation
// experiment (paper Fig. 19); production use should Extract once and Build
// incrementally.
func BuildIsolated(dom cellid.Domain, pts []geom.Point, schema column.Schema, cols [][]float64, rule CleanRule, opts BuildOptions) (*GeoBlock, BuildStats, error) {
	if err := opts.validate(); err != nil {
		return nil, BuildStats{}, err
	}
	var stats BuildStats

	filterStart := time.Now()
	table := column.NewTable(schema)
	vals := make([]float64, schema.NumCols())
rows:
	for i, p := range pts {
		if !rule.keep(p, func(c int) float64 { return cols[c][i] }) {
			continue
		}
		for _, pr := range opts.Filter {
			if !pr.Matches(cols[pr.Col][i]) {
				continue rows
			}
		}
		for c := range vals {
			vals[c] = cols[c][i]
		}
		table.AppendRow(uint64(dom.FromPoint(p)), vals...)
	}
	stats.FilterTime = time.Since(filterStart)

	sortStart := time.Now()
	table.SortByKey()
	stats.SortTime = time.Since(sortStart)

	aggStart := time.Now()
	base := &BaseData{Domain: dom, Table: table, PiggyLevel: -1}
	// The filter has already been applied row-wise; build with an empty
	// filter over the reduced table.
	b, err := Build(base, BuildOptions{Level: opts.Level})
	stats.AggregateTime = time.Since(aggStart)
	if err != nil {
		return nil, stats, err
	}
	b.filter = opts.Filter
	return b, stats, nil
}

// Coarsen derives a new GeoBlock at a coarser level from b without
// re-scanning the base data (paper Sec. 3.4, "Aggregate Granularity"):
// the cell aggregates of the finer block are merged parent by parent.
// newLevel must not exceed b's level.
//
// The merge runs in exact-size passes rather than appending cell by cell:
// the first counts the distinct parents, so every output array is
// allocated once at its final length; the second fills keys, offsets,
// counts and leaf-key extremes and records where each parent's run of
// fine cells starts; the third folds each column's runs into sums, mins,
// maxs and the prefix-sum array together. Each run is folded in ascending
// fine index from the identity (+0, +Inf, −Inf), so the result is
// bit-identical to merging the fine aggregates one at a time.
func Coarsen(b *GeoBlock, newLevel int) (*GeoBlock, error) {
	if newLevel > b.level {
		return nil, fmt.Errorf("core: cannot coarsen level %d block to finer level %d (rescan base data instead)", b.level, newLevel)
	}
	if newLevel < 0 {
		return nil, fmt.Errorf("core: negative level %d", newLevel)
	}
	out := &GeoBlock{
		domain: b.domain,
		level:  newLevel,
		schema: b.schema,
		filter: b.filter,
		cols:   make([]colStore, len(b.cols)),
		base:   b.base,
		header: Header{
			Count: b.header.Count,
			Cols:  append([]ColAggregate(nil), b.header.Cols...),
		},
	}

	// Pass 1: the fine keys are sorted, so parents come in runs.
	n, m := len(b.keys), 0
	var cur cellid.ID
	for i, k := range b.keys {
		maybeYield(i)
		if p := k.Parent(newLevel); i == 0 || p != cur {
			cur = p
			m++
		}
	}

	// Pass 2: exact-size arrays; starts[j] is the first fine cell of
	// parent j, and starts[m] closes the last run.
	out.keys = make([]cellid.ID, m)
	out.offsets = make([]uint32, m)
	out.counts = make([]uint32, m)
	out.minKeys = make([]cellid.ID, m)
	out.maxKeys = make([]cellid.ID, m)
	starts := make([]uint32, m+1)
	j := -1
	for i, k := range b.keys {
		maybeYield(i)
		if p := k.Parent(newLevel); j < 0 || p != out.keys[j] {
			j++
			out.keys[j] = p
			out.offsets[j] = b.offsets[i]
			out.minKeys[j] = b.minKeys[i]
			out.maxKeys[j] = b.maxKeys[i]
			starts[j] = uint32(i)
		} else {
			if b.minKeys[i] < out.minKeys[j] {
				out.minKeys[j] = b.minKeys[i]
			}
			if b.maxKeys[i] > out.maxKeys[j] {
				out.maxKeys[j] = b.maxKeys[i]
			}
		}
		out.counts[j] += b.counts[i]
	}
	starts[m] = uint32(n)

	// Pass 3: one column at a time, each run folded from the identity in
	// ascending fine order, with the prefix sums written alongside.
	for c := range out.cols {
		src, dst := &b.cols[c], &out.cols[c]
		dst.sums = make([]float64, m)
		dst.mins = make([]float64, m)
		dst.maxs = make([]float64, m)
		dst.prefix = make([]float64, m+1)
		sums, mins, maxs := src.sums[:n], src.mins[:n], src.maxs[:n]
		running := 0.0
		for j := 0; j < m; j++ {
			first, end := int(starts[j]), int(starts[j+1])
			sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
			for i := first; i < end; i++ {
				maybeYield(i)
				sum += sums[i]
				if mins[i] < lo {
					lo = mins[i]
				}
				if maxs[i] > hi {
					hi = maxs[i]
				}
			}
			dst.sums[j], dst.mins[j], dst.maxs[j] = sum, lo, hi
			running += sum
			dst.prefix[j+1] = running
		}
	}
	if m > 0 {
		out.header.MinCell = out.keys[0]
		out.header.MaxCell = out.keys[m-1]
	}
	return out, nil
}

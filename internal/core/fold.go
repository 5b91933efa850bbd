package core

import (
	"fmt"
	"math"
	"slices"

	"geoblocks/internal/cellid"
)

// FoldRows builds a new GeoBlock by folding raw rows into b's cell
// aggregates — the compaction step of the base+delta write path. Unlike
// Update it can open cells that have no aggregate yet (the sorted layout is
// rebuilt, not patched), and unlike RebuildWith it needs no base data
// table: one merge pass walks b's sorted cells and the leaf-sorted rows
// together, copying untouched cells verbatim and combining the rest.
//
// b is never mutated, so FoldRows is safe to run concurrently with readers
// of b; the caller swaps the returned block in once it is complete. Rows
// must be sorted ascending by leaf id; rows not matching the block's filter
// are dropped, mirroring Update. For cells untouched by any row every
// aggregate is copied bit-identically; for touched cells COUNT/MIN/MAX
// equal a from-scratch rebuild exactly and SUM appends the new values after
// the existing per-cell sum (the reassociation bound of DESIGN.md Sec. 6,
// exact for integer-valued columns below 2^53).
//
// The new block keeps b's base-table reference; like Update it diverges
// from Base() until the next full rebuild.
func FoldRows(b *GeoBlock, leaves []cellid.ID, cols [][]float64) (*GeoBlock, error) {
	if err := b.validateRows(leaves, cols); err != nil {
		return nil, err
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i] < leaves[i-1] {
			return nil, fmt.Errorf("core: fold rows not sorted by leaf id at index %d", i)
		}
	}

	// Filter pass: indices of qualifying rows, in leaf order, and the
	// number of distinct cells they open that b does not have, so the
	// merge below writes into arrays of their final length.
	keep := make([]int, 0, len(leaves))
	newCells, at := 0, 0
	var lastCell cellid.ID
rows:
	for i := range leaves {
		maybeYield(i)
		for _, pr := range b.filter {
			if !pr.Matches(cols[pr.Col][i]) {
				continue rows
			}
		}
		if cell := leaves[i].Parent(b.level); len(keep) == 0 || cell != lastCell {
			at = b.gallopLowerBound(cell, at)
			if at == len(b.keys) || b.keys[at] != cell {
				newCells++
			}
			lastCell = cell
		}
		keep = append(keep, i)
	}
	if b.header.Count+uint64(len(keep)) > math.MaxUint32 {
		return nil, fmt.Errorf("core: fold exceeds uint32 offsets (%d+%d rows)", b.header.Count, len(keep))
	}

	nb := &GeoBlock{
		domain: b.domain,
		level:  b.level,
		schema: b.schema,
		filter: b.filter,
		cols:   make([]colStore, len(b.cols)),
		base:   b.base,
		header: Header{
			Count: b.header.Count + uint64(len(keep)),
			Cols:  append([]ColAggregate(nil), b.header.Cols...),
		},
	}
	n := len(b.keys) + newCells // the merge's exact output length
	nb.keys = make([]cellid.ID, 0, n)
	nb.counts = make([]uint32, 0, n)
	nb.minKeys = make([]cellid.ID, 0, n)
	nb.maxKeys = make([]cellid.ID, 0, n)
	for c := range nb.cols {
		nb.cols[c].sums = make([]float64, 0, n)
		nb.cols[c].mins = make([]float64, 0, n)
		nb.cols[c].maxs = make([]float64, 0, n)
	}

	// copyRun appends base cells [i, e) unchanged, one append per array.
	copyRun := func(i, e int) {
		nb.keys = append(nb.keys, b.keys[i:e]...)
		nb.counts = append(nb.counts, b.counts[i:e]...)
		nb.minKeys = append(nb.minKeys, b.minKeys[i:e]...)
		nb.maxKeys = append(nb.maxKeys, b.maxKeys[i:e]...)
		for c := range nb.cols {
			nb.cols[c].sums = append(nb.cols[c].sums, b.cols[c].sums[i:e]...)
			nb.cols[c].mins = append(nb.cols[c].mins, b.cols[c].mins[i:e]...)
			nb.cols[c].maxs = append(nb.cols[c].maxs, b.cols[c].maxs[i:e]...)
		}
	}
	openCell := func(cell, leaf cellid.ID) {
		nb.keys = append(nb.keys, cell)
		nb.counts = append(nb.counts, 0)
		nb.minKeys = append(nb.minKeys, leaf)
		nb.maxKeys = append(nb.maxKeys, leaf)
		for c := range nb.cols {
			nb.cols[c].appendEmpty()
		}
	}
	// addRow folds row k into the last output cell and the header.
	addRow := func(k int) {
		last := len(nb.keys) - 1
		leaf := leaves[k]
		nb.counts[last]++
		if leaf < nb.minKeys[last] {
			nb.minKeys[last] = leaf
		}
		if leaf > nb.maxKeys[last] {
			nb.maxKeys[last] = leaf
		}
		for c := range nb.cols {
			v := cols[c][k]
			nb.cols[c].addValueAt(last, v)
			nb.header.Cols[c].addValue(v)
		}
	}

	// Each step emits at least one output cell, and a bulk copy stops at
	// the next multiple of yieldStride output cells, so the yield fires
	// once per stride of output — at least once per stride of base cells.
	for i, j := 0, 0; i < len(b.keys) || j < len(keep); maybeYield(len(nb.keys)) {
		var rowCell cellid.ID
		if j < len(keep) {
			rowCell = leaves[keep[j]].Parent(b.level)
		}
		switch {
		case j >= len(keep) || (i < len(b.keys) && b.keys[i] < rowCell):
			// The base cells below the next row's cell are untouched.
			e := min(len(b.keys), i+yieldStride-len(nb.keys)%yieldStride)
			if j < len(keep) {
				k, _ := slices.BinarySearch(b.keys[i:e], rowCell)
				e = i + k
			}
			copyRun(i, e)
			i = e
		case i >= len(b.keys) || rowCell < b.keys[i]:
			openCell(rowCell, leaves[keep[j]])
			for j < len(keep) && leaves[keep[j]].Parent(b.level) == rowCell {
				addRow(keep[j])
				j++
			}
		default: // rowCell == b.keys[i]: copy then fold the run of rows
			copyRun(i, i+1)
			i++
			for j < len(keep) && leaves[keep[j]].Parent(b.level) == rowCell {
				addRow(keep[j])
				j++
			}
		}
	}

	// Restore the offset invariant in one sweep, then the prefix sums.
	nb.offsets = make([]uint32, len(nb.keys))
	var running uint32
	for i := range nb.keys {
		maybeYield(i)
		nb.offsets[i] = running
		running += nb.counts[i]
	}
	if len(nb.keys) > 0 {
		nb.header.MinCell = nb.keys[0]
		nb.header.MaxCell = nb.keys[len(nb.keys)-1]
	}
	nb.buildPrefixes()
	return nb, nil
}

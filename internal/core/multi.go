package core

import (
	"cmp"
	"slices"

	"geoblocks/internal/cellid"
)

// multiSpan is one covering cell of one query in the shared walk: its
// key range plus the accumulator it scatters into.
type multiSpan struct {
	lo, hi cellid.ID
	acc    int32
}

// SelectCoveringMulti answers K SELECT queries over one block in a
// single pass: every covering cell becomes a key-range span tagged with
// its query index, the spans are sorted by range start, and one
// monotone cursor walks the block's cell-aggregate array combining each
// span into its query's accumulator by the same endpoint arithmetic as
// SelectCovering. K overlapping coverings therefore cost one ordered
// traversal of the keys, not K.
//
// Each covering obeys the SelectCovering contract (ascending, disjoint,
// no cells finer than the block level); coverings of different queries
// may overlap arbitrarily. Every returned accumulator is bit-identical
// to SelectCoveringPartial run on its covering alone — including
// SUM/AVG, because a query's spans stay in its covering's ascending
// order, so its ranges combine in the same sequence — and the shared
// cursor only ever advances to a span's first contained aggregate,
// which lower-bounds the first of every later span (spans are sorted by
// lo), keeping the gallop start valid for all of them.
func (b *GeoBlock) SelectCoveringMulti(covs [][]cellid.ID, specs []AggSpec) ([]*Accumulator, error) {
	if err := b.validateSpecs(specs); err != nil {
		return nil, err
	}
	accs := make([]*Accumulator, len(covs))
	total := 0
	for _, cov := range covs {
		total += len(cov)
	}
	spans := make([]multiSpan, 0, total)
	minLo := b.header.MinCell.RangeMin()
	maxHi := b.header.MaxCell.RangeMax()
	for i, cov := range covs {
		accs[i] = &Accumulator{b: b, inner: newAccumulator(specs), cursor: len(b.keys)}
		for _, qc := range cov {
			lo, hi := qc.RangeMin(), qc.RangeMax()
			// Header pruning, exactly as in selectCoveringInto.
			if hi < minLo || lo > maxHi {
				continue
			}
			spans = append(spans, multiSpan{lo: lo, hi: hi, acc: int32(i)})
		}
	}
	slices.SortFunc(spans, func(a, b multiSpan) int {
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.acc, b.acc)
	})
	cursor := 0
	for _, s := range spans {
		if cursor >= len(b.keys) {
			break
		}
		first := b.gallopLowerBound(s.lo, cursor)
		if first >= len(b.keys) {
			// Every later span starts at or after s.lo, so nothing else
			// can match either.
			break
		}
		cursor = first
		if b.keys[first] > s.hi {
			continue
		}
		last := b.gallopUpperBound(s.hi, first) - 1
		a := accs[s.acc]
		a.inner.combineRange(b, first, last)
		a.visited += last - first + 1
	}
	return accs, nil
}

package core

// Tests for the struct-of-arrays layout and the per-column prefix-sum
// arrays introduced by the O(1) SUM/AVG query path: structural invariants
// after Build/Coarsen, survival of serialization, and consistency after
// in-place updates (lazy prefix rebuild).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
)

// checkPrefixInvariant asserts prefix[0] = 0, len = cells+1 and that each
// step reproduces the cell's sum.
func checkPrefixInvariant(t *testing.T, b *GeoBlock) {
	t.Helper()
	n := b.NumCells()
	for c := range b.cols {
		cs := &b.cols[c]
		if len(cs.prefix) != n+1 {
			t.Fatalf("col %d: prefix length %d, want %d", c, len(cs.prefix), n+1)
		}
		if cs.prefix[0] != 0 {
			t.Fatalf("col %d: prefix[0] = %g", c, cs.prefix[0])
		}
		running := 0.0
		for i := 0; i < n; i++ {
			running += cs.sums[i]
			if cs.prefix[i+1] != running {
				t.Fatalf("col %d: prefix[%d] = %g, want %g", c, i+1, cs.prefix[i+1], running)
			}
		}
	}
}

func TestBuildMaterialisesPrefixes(t *testing.T) {
	f := newFixture(t, 20000, 21)
	b := f.build(t, 12, nil)
	checkPrefixInvariant(t, b)
}

func TestCoarsenMaterialisesPrefixes(t *testing.T) {
	f := newFixture(t, 20000, 22)
	fine := f.build(t, 14, nil)
	coarse, err := Coarsen(fine, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefixInvariant(t, coarse)
}

func TestSerializeRoundTripPrefixes(t *testing.T) {
	fx := gbf1Fixtures[2]
	f, rb, b := fx.decode(t)
	checkPrefixInvariant(t, rb)
	// The prefix-backed query path must agree bit-exactly.
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(fx.level)).Cover(testPolygon())
	a, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rb.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != got.Count || a.CellsVisited != got.CellsVisited {
		t.Fatalf("round-trip query mismatch: %+v vs %+v", a, got)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(got.Values[i]) {
			t.Fatalf("value[%d] not bit-identical after round trip", i)
		}
	}
}

// TestReadBlockRejectsVersion1: a frame around a bare version-1 payload
// reports ErrVersion and names the version.
func TestReadBlockRejectsVersion1(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32([]byte(blockMagic), 1)
	_, _, err := DecodeFramed(bytes.NewReader(reframe(payload)))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 frame: error %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 rejection not descriptive: %v", err)
	}
}

func TestUpdatePatchesPrefixesAndQueriesStayConsistent(t *testing.T) {
	f := newFixture(t, 10000, 24)
	b := f.build(t, 8, nil)
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(8)).Cover(testPolygon())

	batch := &UpdateBatch{
		Points: []geom.Point{f.pts[0], f.pts[1], f.pts[2], f.pts[3]},
		Cols: [][]float64{
			{10, 20, 30, 40},
			{1, 2, 3, 4},
			{1, 1, 2, 2},
		},
	}
	if err := b.Update(batch); err != nil {
		t.Fatal(err)
	}
	// Update patches the prefix arrays eagerly so query paths stay
	// read-only; the invariant must hold immediately.
	checkPrefixInvariant(t, b)

	// The prefix path must agree with the scan ablation, which reads the
	// per-cell sums directly.
	fast, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := b.SelectCoveringScan(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Count != slow.Count || fast.CellsVisited != slow.CellsVisited {
		t.Fatalf("post-update mismatch: %+v vs %+v", fast, slow)
	}
	for i := range fast.Values {
		if !approxEqual(fast.Values[i], slow.Values[i]) {
			t.Fatalf("post-update value[%d]: %g vs %g", i, fast.Values[i], slow.Values[i])
		}
	}

	// COUNT via offsets must also reflect the update (offset sweep and
	// prefix rebuild are independent invariants).
	if got := b.CountCovering([]cellid.ID{cellid.Root()}); got != b.NumTuples() {
		t.Fatalf("whole-domain count after update = %d, want %d", got, b.NumTuples())
	}
}

func TestAggregateCellRangeMatchesScan(t *testing.T) {
	f := newFixture(t, 15000, 25)
	b := f.build(t, 12, nil)
	cells := []cellid.ID{
		cellid.Root(),
		b.keys[0].Parent(4),
		b.keys[b.NumCells()/2].Parent(8),
		b.keys[b.NumCells()-1],
	}
	for _, cell := range cells {
		count, cols, end := b.AggregateCellRange(cell)
		// Reference: per-cell merge over the same range.
		wantCols := make([]ColAggregate, len(b.cols))
		for c := range wantCols {
			wantCols[c] = emptyColAggregate()
		}
		var wantCount uint64
		i := b.lowerBound(cell.RangeMin(), 0)
		for ; i < len(b.keys) && b.keys[i] <= cell.RangeMax(); i++ {
			wantCount += uint64(b.counts[i])
			for c := range wantCols {
				wantCols[c].merge(b.cols[c].at(i))
			}
		}
		if count != wantCount || end != i {
			t.Fatalf("cell %v: count/end = %d/%d, want %d/%d", cell, count, end, wantCount, i)
		}
		for c := range cols {
			if !approxEqual(cols[c].Sum, wantCols[c].Sum) ||
				cols[c].Min != wantCols[c].Min || cols[c].Max != wantCols[c].Max {
				t.Fatalf("cell %v col %d: %+v, want %+v", cell, c, cols[c], wantCols[c])
			}
		}
	}
}
